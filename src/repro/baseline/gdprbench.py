"""GDPRBench-style workloads (after Shastri et al. [17], cited by the paper).

The paper's sole quantitative reference point for GDPR storage cost is
its citation of *"Understanding and benchmarking the impact of GDPR on
database systems"* (VLDB 2020), which defines four personas and their
operation mixes against a GDPR-enabled store.  This module reproduces
that benchmark structure against three engines:

* :class:`PlainDBAdapter` — no GDPR at all (lower bound);
* :class:`UserspaceDBAdapter` — GDPR inside the DB engine, userspace,
  general-purpose OS (the Fig. 2 prior art);
* :class:`RgpdOSAdapter` — the full rgpdOS stack (PS → DED → DBFS).

Personas and mixes (weights follow the spirit of GDPRBench):

=============  ==========================================================
``customer``   subject-facing: read own data, rectify, toggle consent,
               occasionally exercise erasure
``controller`` operator-facing: overwhelmingly consent/metadata updates
``processor``  purpose-driven reads for processing (analytics)
``regulator``  audits: right-of-access exports and processing logs
=============  ==========================================================

The expected *shape* (EXPERIMENTS.md, GB-1): plain < userspace-GDPR <
rgpdOS in per-op cost; rgpdOS pays its extra tax in membrane handling
but is the only engine whose deletes actually forget and whose reads
are mediated outside the application's address space.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .. import errors
from ..core.active_data import PDRef
from ..core.purposes import processing as processing_decorator
from ..core.system import RgpdOS
from ..obs import Telemetry
from ..storage.cache import CacheConfig
from ..storage.journal import JournalConfig
from ..workloads.generator import (
    STANDARD_DECLARATIONS,
    PopulationGenerator,
    Subject,
)
from .plain_db import PlainDB
from .userspace_db import GDPRUserspaceDB

PURPOSE_ACCOUNT = "account_management"
PURPOSE_ANALYTICS = "analytics"
PURPOSE_MARKETING = "marketing"

OP_READ = "read"
OP_UPDATE = "update"
OP_CONSENT = "consent_toggle"
OP_DELETE = "delete"
OP_ACCESS = "subject_access"
OP_PROCESS = "purpose_read"
OP_AUDIT = "audit"

#: Persona operation mixes: op → weight.
PERSONAS: Dict[str, Dict[str, float]] = {
    "customer": {OP_READ: 0.50, OP_UPDATE: 0.25, OP_CONSENT: 0.15, OP_DELETE: 0.10},
    "controller": {OP_CONSENT: 0.80, OP_READ: 0.20},
    "processor": {OP_PROCESS: 1.00},
    "regulator": {OP_ACCESS: 0.50, OP_AUDIT: 0.50},
}


class StorageAdapter(ABC):
    """Uniform persona-operation interface over one engine."""

    name = "adapter"

    @abstractmethod
    def insert(self, subject: Subject, consents: Mapping[str, str]) -> str:
        """Store one subject record; returns the engine's key."""

    def insert_many(
        self, batch: Sequence[Tuple[Subject, Mapping[str, str]]]
    ) -> List[str]:
        """Bulk insert (the load phase).  Engines with a group-commit
        fast path override this; the default just loops."""
        return [self.insert(subject, consents) for subject, consents in batch]

    @abstractmethod
    def read(self, key: str, purpose: str) -> Optional[Dict[str, object]]:
        """Purpose-checked point read (None when denied)."""

    @abstractmethod
    def update(self, key: str, changes: Mapping[str, object]) -> bool:
        """Subject-initiated rectification."""

    @abstractmethod
    def toggle_consent(self, key: str, purpose: str, granted: bool) -> None:
        """Grant or withdraw one purpose's consent."""

    @abstractmethod
    def delete(self, key: str) -> None:
        """Right to be forgotten for one record."""

    @abstractmethod
    def subject_access(self, key: str) -> Dict[str, object]:
        """Right-of-access export for the record's subject."""

    @abstractmethod
    def audit(self, key: str) -> List[object]:
        """Processing history touching the record's subject."""


# ---------------------------------------------------------------------------
# Adapters
# ---------------------------------------------------------------------------


class PlainDBAdapter(StorageAdapter):
    """No GDPR: every op is a plain table op, consent is ignored."""

    name = "plain-db"
    TABLE = "users"

    def __init__(self) -> None:
        self.db = PlainDB()
        self.db.create_table(self.TABLE)
        self._subject_of: Dict[str, str] = {}

    def insert(self, subject: Subject, consents: Mapping[str, str]) -> str:
        key = subject.subject_id
        self.db.insert(self.TABLE, key, subject.user_record())
        self._subject_of[key] = subject.subject_id
        return key

    def read(self, key: str, purpose: str) -> Optional[Dict[str, object]]:
        return self.db.get(self.TABLE, key)

    def update(self, key: str, changes: Mapping[str, object]) -> bool:
        self.db.update(self.TABLE, key, changes)
        return True

    def toggle_consent(self, key: str, purpose: str, granted: bool) -> None:
        # A plain engine has nowhere to put consent; the op is a no-op
        # — that *is* the point of the lower bound.
        return None

    def delete(self, key: str) -> None:
        self.db.delete(self.TABLE, key)
        del self._subject_of[key]

    def subject_access(self, key: str) -> Dict[str, object]:
        return {"records": [self.db.get(self.TABLE, key)]}

    def audit(self, key: str) -> List[object]:
        return []  # no log exists


class UserspaceDBAdapter(StorageAdapter):
    """GDPR inside the engine (Fig. 2), journaled FS below."""

    name = "userspace-gdpr-db"
    TABLE = "users"

    def __init__(self) -> None:
        self.db = GDPRUserspaceDB()
        self.db.create_table(self.TABLE)
        self._subject_of: Dict[str, str] = {}

    def insert(self, subject: Subject, consents: Mapping[str, str]) -> str:
        key = subject.subject_id
        consent_flags = {PURPOSE_ACCOUNT: True}
        consent_flags.update({p: True for p in consents})
        self.db.insert(
            self.TABLE,
            key,
            subject.user_record(),
            subject_id=subject.subject_id,
            consents=consent_flags,
        )
        self._subject_of[key] = subject.subject_id
        return key

    def read(self, key: str, purpose: str) -> Optional[Dict[str, object]]:
        return self.db.read(self.TABLE, key, purpose)

    def update(self, key: str, changes: Mapping[str, object]) -> bool:
        return self.db.update(self.TABLE, key, changes, PURPOSE_ACCOUNT)

    def toggle_consent(self, key: str, purpose: str, granted: bool) -> None:
        self.db.update_consent(self.TABLE, key, purpose, granted)

    def delete(self, key: str) -> None:
        self.db.gdpr_delete(self.TABLE, key)
        del self._subject_of[key]

    def subject_access(self, key: str) -> Dict[str, object]:
        subject_id = self._subject_of[key]
        return {"records": self.db.read_subject(self.TABLE, subject_id)}

    def audit(self, key: str) -> List[object]:
        return [
            entry
            for entry in self.db.access_log
            if entry.get("key") == key
        ]


def _bench_read_profile(user):  # noqa: ANN001 - PDView duck type
    """purpose: account_management

    Identity read used by the benchmark's customer persona.
    """
    return {
        "name": user.name,
        "email": user.email,
        "city": user.city,
        "year_of_birthdate": user.year_of_birthdate,
    }


def _bench_analytics(user):  # noqa: ANN001 - PDView duck type
    """purpose: analytics

    Purpose-driven processor read: only the anonymous view's fields.
    """
    if user.year_of_birthdate:
        return {"decade": (user.year_of_birthdate // 10) * 10}
    return None


class RgpdOSAdapter(StorageAdapter):
    """The full paper stack behind the persona interface.

    ``shards`` selects the DBFS layout: 1 (the default) is the seed's
    single DatabaseFS; N > 1 runs the sharded scatter-gather store, so
    the persona mixes measure how subject-scoped GDPR ops scale with
    shard count.  ``pd_device_blocks`` sizes each PD device (large
    populations need more than the default 65536 blocks per shard) and
    ``journal_config`` sets the per-shard auto-checkpoint policy and
    ``cache_config`` the fast-path knobs, so the persona mixes can
    isolate the decode path (codec benchmarks run with the record cache
    off).

    ``record_codec`` accepts only ``"v2"``, the one row encoding DBFS
    has.  It is kept so that callers written when JSON rows were still
    a table option, which pass ``record_codec="v2"``, keep working.
    """

    name = "rgpdos"

    def __init__(
        self,
        shards: int = 1,
        pd_device_blocks: Optional[int] = None,
        journal_config: Optional[JournalConfig] = None,
        with_machine: bool = True,
        telemetry: Optional[Telemetry] = None,
        record_codec: str = "v2",
        cache_config: Optional[CacheConfig] = None,
        workers: int = 0,
        io_delay_scale: float = 0.0,
    ) -> None:
        if record_codec != "v2":
            raise ValueError(
                f"unknown record codec {record_codec!r}: binary-v2 is the "
                "only row encoding"
            )
        self.system = RgpdOS(
            operator_name="gdprbench",
            shards=shards,
            pd_device_blocks=pd_device_blocks,
            journal_config=journal_config,
            with_machine=with_machine,
            telemetry=telemetry,
            cache_config=cache_config,
            workers=workers,
            io_delay_scale=io_delay_scale,
        )
        if shards > 1:
            self.name = f"rgpdos-{shards}shard"
        if workers > 0:
            self.name = f"{self.name}-{workers}w"
        self.system.install(STANDARD_DECLARATIONS)
        self.system.register(
            _bench_read_profile, purpose=PURPOSE_ACCOUNT, name="bench_read"
        )
        self.system.register(
            _bench_analytics, purpose=PURPOSE_ANALYTICS, name="bench_analytics"
        )
        self._refs: Dict[str, PDRef] = {}

    def insert(self, subject: Subject, consents: Mapping[str, str]) -> str:
        ref = self.system.collect(
            "user",
            subject.user_record(),
            subject_id=subject.subject_id,
            method="web_form",
            consents=dict(consents),
        )
        self._refs[ref.uid] = ref
        return ref.uid

    def insert_many(
        self, batch: Sequence[Tuple[Subject, Mapping[str, str]]]
    ) -> List[str]:
        """Bulk load under one journal group commit per shard (see
        :meth:`repro.storage.journal.Journal.batch`)."""
        with self.system.dbfs.batch():
            return [
                self.insert(subject, consents) for subject, consents in batch
            ]

    def read(self, key: str, purpose: str) -> Optional[Dict[str, object]]:
        processing_name = (
            "bench_read" if purpose == PURPOSE_ACCOUNT else "bench_analytics"
        )
        result = self.system.invoke(processing_name, target=self._refs[key])
        if result.denied or key not in result.values:
            return None
        return result.values[key]  # type: ignore[return-value]

    def update(self, key: str, changes: Mapping[str, object]) -> bool:
        ref = self._refs[key]
        self.system.invoke(
            "update", target=ref, changes=dict(changes), actor=ref.subject_id
        )
        return True

    def toggle_consent(self, key: str, purpose: str, granted: bool) -> None:
        ref = self._refs[key]
        if granted:
            scope = "v_ano" if purpose == PURPOSE_ANALYTICS else "all"
            self.system.rights.grant_consent(
                ref.subject_id, ref, purpose, scope
            )
        else:
            self.system.rights.object_to(ref.subject_id, purpose)

    def delete(self, key: str) -> None:
        ref = self._refs[key]
        self.system.rights.erase(ref.subject_id, ref)
        del self._refs[key]

    def subject_access(self, key: str) -> Dict[str, object]:
        ref = self._refs[key]
        return self.system.rights.right_of_access(ref.subject_id).export

    def audit(self, key: str) -> List[object]:
        ref = self._refs[key]
        return self.system.log.for_subject(ref.subject_id)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class BenchResult:
    """Outcome of one persona run on one adapter."""

    adapter: str
    persona: str
    operations: int
    wall_seconds: float
    op_counts: Dict[str, int] = field(default_factory=dict)
    denied: int = 0

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.wall_seconds if self.wall_seconds else 0.0


class GDPRBenchRunner:
    """Loads a population into an adapter, then drives persona mixes."""

    def __init__(self, adapter: StorageAdapter, seed: int = 7) -> None:
        self.adapter = adapter
        self.rng = Random(seed)
        self.generator = PopulationGenerator(seed=seed)
        self.keys: List[str] = []
        self.subjects: Dict[str, Subject] = {}

    def load(self, record_count: int, analytics_consent_rate: float = 0.7) -> None:
        """Populate the store; a fraction of subjects consent to analytics.

        Inserts go through the adapter's bulk path, so engines with
        journal group commit amortise the load phase's flushes.
        """
        batch: List[Tuple[Subject, Mapping[str, str]]] = []
        for subject in self.generator.subjects(record_count):
            consents: Dict[str, str] = {}
            if self.rng.random() < analytics_consent_rate:
                consents[PURPOSE_ANALYTICS] = "v_ano"
            batch.append((subject, consents))
        keys = self.adapter.insert_many(batch)
        for (subject, _), key in zip(batch, keys):
            self.keys.append(key)
            self.subjects[key] = subject

    def run(self, persona: str, operations: int) -> BenchResult:
        """Execute ``operations`` ops drawn from the persona's mix."""
        mix = PERSONAS.get(persona)
        if mix is None:
            raise errors.RgpdOSError(
                f"unknown persona {persona!r} (valid: {sorted(PERSONAS)})"
            )
        ops = list(mix)
        weights = [mix[op] for op in ops]
        result = BenchResult(
            adapter=self.adapter.name, persona=persona, operations=operations,
            wall_seconds=0.0,
        )
        start = time.perf_counter()
        for _ in range(operations):
            op = self.rng.choices(ops, weights=weights, k=1)[0]
            self._execute(op, result)
            result.op_counts[op] = result.op_counts.get(op, 0) + 1
        result.wall_seconds = time.perf_counter() - start
        return result

    def _execute(self, op: str, result: BenchResult) -> None:
        if not self.keys:
            return
        key = self.rng.choice(self.keys)
        if op == OP_READ:
            if self.adapter.read(key, PURPOSE_ACCOUNT) is None:
                result.denied += 1
        elif op == OP_PROCESS:
            if self.adapter.read(key, PURPOSE_ANALYTICS) is None:
                result.denied += 1
        elif op == OP_UPDATE:
            city = self.generator.choice(
                ("Lyon", "Paris", "Rennes", "Nantes")
            )
            self.adapter.update(key, {"city": city})
        elif op == OP_CONSENT:
            self.adapter.toggle_consent(
                key, PURPOSE_ANALYTICS, granted=bool(self.rng.random() < 0.5)
            )
        elif op == OP_DELETE:
            # Delete, then re-insert a fresh subject so the population
            # stays at steady state for the rest of the run.
            self.adapter.delete(key)
            self.keys.remove(key)
            replacement = self.generator.subject()
            new_key = self.adapter.insert(replacement, {PURPOSE_ANALYTICS: "v_ano"})
            self.keys.append(new_key)
            self.subjects[new_key] = replacement
        elif op == OP_ACCESS:
            self.adapter.subject_access(key)
        elif op == OP_AUDIT:
            self.adapter.audit(key)
        else:  # pragma: no cover - the mix tables only name known ops
            raise errors.RgpdOSError(f"unknown op {op!r}")


def build_persona_tasks(
    runner: GDPRBenchRunner,
    persona: str,
    operations: int,
    seed: int = 7,
) -> Tuple[List, List[str]]:
    """A seeded, thread-safe task list for one persona's mix.

    Unlike :meth:`GDPRBenchRunner.run` (which mutates ``runner.keys``
    inline and so must run serially), every closure here is safe to
    execute on a concurrent engine: deletes draw *unique* keys from a
    reserved pool and re-insert a fresh subject, all other ops draw
    from the stable remainder.  Same seed → same sequence, so serial
    and concurrent replays do identical work.
    """
    mix = PERSONAS.get(persona)
    if mix is None:
        raise errors.RgpdOSError(
            f"unknown persona {persona!r} (valid: {sorted(PERSONAS)})"
        )
    adapter = runner.adapter
    rng = Random(seed)
    keys = list(runner.keys)
    delete_weight = mix.get(OP_DELETE, 0.0)
    delete_budget = int(operations * delete_weight * 2) + 4
    delete_pool = keys[:delete_budget] if delete_weight else []
    stable = keys[delete_budget:] if delete_weight else keys
    if delete_pool:
        # Retire the reserved keys from the runner NOW: a later
        # build over the same runner must never hand out a key this
        # replay may have erased.  Replacement keys are appended (under
        # a lock — the insert runs on an engine worker) as they land.
        runner.keys = list(stable)
    roster_lock = threading.Lock()
    ops = list(mix)
    weights = [mix[op] for op in ops]

    tasks: List = []
    names: List[str] = []
    for _ in range(operations):
        op = rng.choices(ops, weights=weights, k=1)[0]
        if op == OP_DELETE and not delete_pool:
            op = OP_READ
        if op == OP_READ:
            key = rng.choice(stable)
            task = lambda k=key: adapter.read(k, PURPOSE_ACCOUNT)
        elif op == OP_PROCESS:
            key = rng.choice(stable)
            task = lambda k=key: adapter.read(k, PURPOSE_ANALYTICS)
        elif op == OP_UPDATE:
            key = rng.choice(stable)
            city = rng.choice(("Lyon", "Paris", "Rennes", "Nantes"))
            task = lambda k=key, c=city: adapter.update(k, {"city": c})
        elif op == OP_CONSENT:
            key = rng.choice(stable)
            granted = bool(rng.random() < 0.5)
            task = lambda k=key, g=granted: adapter.toggle_consent(
                k, PURPOSE_ANALYTICS, granted=g
            )
        elif op == OP_ACCESS:
            key = rng.choice(stable)
            task = lambda k=key: adapter.subject_access(k)
        elif op == OP_AUDIT:
            key = rng.choice(stable)
            task = lambda k=key: adapter.audit(k)
        else:  # OP_DELETE
            key = delete_pool.pop(rng.randrange(len(delete_pool)))
            replacement = runner.generator.subject()

            def task(k=key, r=replacement):
                adapter.delete(k)
                new_key = adapter.insert(r, {PURPOSE_ANALYTICS: "v_ano"})
                with roster_lock:
                    runner.keys.append(new_key)
                    runner.subjects[new_key] = r

        tasks.append(task)
        names.append(op)
    if delete_pool:
        # Keys no task drew were never at risk: hand them back, or the
        # roster shrinks by the unused reservation on every build.
        with roster_lock:
            runner.keys.extend(delete_pool)
    return tasks, names


def run_comparison(
    record_count: int = 50,
    operations: int = 100,
    personas: Sequence[str] = ("customer", "controller", "processor", "regulator"),
    seed: int = 7,
    shards: int = 1,
    telemetry: Optional[Telemetry] = None,
) -> List[BenchResult]:
    """The GB-1 grid: every persona on every engine.

    ``shards`` and ``telemetry`` apply to the rgpdOS engine only (the
    baselines have no sharded layout and no probe points); passing one
    shared :class:`Telemetry` collects every persona run's spans and
    latency histograms into a single registry/tracer.
    """
    results: List[BenchResult] = []
    for adapter_cls in (PlainDBAdapter, UserspaceDBAdapter, RgpdOSAdapter):
        for persona in personas:
            if adapter_cls is RgpdOSAdapter:
                adapter: StorageAdapter = RgpdOSAdapter(
                    shards=shards, telemetry=telemetry
                )
            else:
                adapter = adapter_cls()
            runner = GDPRBenchRunner(adapter, seed=seed)
            runner.load(record_count)
            results.append(runner.run(persona, operations))
    return results
