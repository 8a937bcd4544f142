"""The four GDPRBench persona workloads and the closed loop that drives them.

Each workload loads a seeded population into ``RgpdOSAdapter`` through
``GDPRBenchRunner.load`` and then runs ops built by
``build_persona_tasks``: one client, no request engine, simulated IO
sleeps off, so every latency is CPU service time.  The op list is
generated in chunks from the workload seed *before* each chunk runs;
generation and the correctness checks run outside the timed window.

Every adapter call goes through :class:`RecordingAdapter`, which keeps
the call's arguments and result.  After each chunk the benchmark
replays those events against :class:`ReferenceModel` (consent state
and record contents as the benchmark itself tracks them) and counts
every mismatch as a failed op.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import asdict, dataclass, field
from random import Random
from contextlib import nullcontext
from typing import (
    Callable,
    ContextManager,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.baseline.gdprbench import (
    OP_ACCESS,
    OP_CONSENT,
    OP_DELETE,
    OP_PROCESS,
    OP_READ,
    OP_UPDATE,
    PERSONAS,
    PURPOSE_ACCOUNT,
    PURPOSE_ANALYTICS,
    GDPRBenchRunner,
    RgpdOSAdapter,
    StorageAdapter,
    build_persona_tasks,
)
from repro.obs import Telemetry
from repro.storage.cache import DEFAULT_CACHE_CONFIG
from repro.storage.codec import encode_record_v1
from repro.storage.journal import JournalConfig
from repro.workloads.generator import Subject

from measure import Tally, samples_needed
from spans import SpanRecorder


@dataclass(frozen=True)
class Workload:
    """One persona workload; its name is the GDPRBench persona it runs."""

    name: str
    population: int
    shards: int
    why: str
    #: Ops generated per chunk.  Small for ``customer``, whose chunks
    #: each reserve a pool of keys for erasure.
    chunk_ops: int
    #: Untimed ops run first, through the same path as the timed ones.
    warmup_ops: int
    #: Timed ops a run needs at least, besides its seconds: the
    #: ``customer`` mix is one part erasures at ~100x the cost of the
    #: rest, so its throughput settles only over a few thousand ops.
    min_ops: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "customer", 2000, 1,
            "erasure path: rights.erase -> builtins.delete -> "
            "dbfs.residue_counts -> block.scan + journal scan, an O(device) "
            "scan per erase that dominates the mix",
            chunk_ops=100, warmup_ops=20, min_ops=2000,
        ),
        Workload(
            "controller", 2000, 1,
            "consent writes beside reads, no erasure: rights -> "
            "dbfs.put_membrane -> journal.commit -> block.write; working "
            "set fits every cache, journal grows",
            chunk_ops=500, warmup_ops=500,
        ),
        Workload(
            "processor", 10000, 1,
            "read-only purpose reads: ps.ps_invoke -> ded.run -> "
            "dbfs.fetch_records -> codec -> block.read; working set larger "
            "than the record and page caches",
            chunk_ops=500, warmup_ops=500,
        ),
        Workload(
            "regulator", 10000, 8,
            "right-of-access exports and processing-log audits over 8 "
            "shards: the only workload reaching dbfs.export_subject, "
            "processing_log.for_subject and ShardedDBFS routing",
            chunk_ops=500, warmup_ops=500,
        ),
    )
}

#: Per-op-type median metrics, by the GDPRBench op they time.
OP_P50_METRICS = {
    OP_READ: "read_p50_ms",
    OP_UPDATE: "update_p50_ms",
    OP_CONSENT: "consent_p50_ms",
    OP_PROCESS: "purpose_read_p50_ms",
    OP_ACCESS: "access_p50_ms",
}

#: Fields the account-management read returns.
_READ_FIELDS = ("name", "email", "city", "year_of_birthdate")


def user_bytes(record: Mapping[str, object]) -> int:
    """Size of a user record in its canonical JSON (codec v1) encoding."""
    return len(encode_record_v1(dict(record)))


# ---------------------------------------------------------------------------
# Recording adapter and reference model
# ---------------------------------------------------------------------------


class RecordingAdapter(StorageAdapter):
    """Delegates to a real adapter and keeps every call and its result.

    ``op_index`` is set by the loop before each op so each event can
    be charged to the op that caused it.  The erasure call is timed
    here, apart from the re-collection that the persona task runs next.
    """

    name = "rgpdos"

    def __init__(self, inner: RgpdOSAdapter) -> None:
        self.inner = inner
        self.op_index = -1
        self.events: List[Tuple] = []

    def insert(self, subject: Subject, consents: Mapping[str, str]) -> str:
        key = self.inner.insert(subject, consents)
        self.events.append((self.op_index, "insert", key, subject, dict(consents)))
        return key

    def insert_many(
        self, batch: Sequence[Tuple[Subject, Mapping[str, str]]]
    ) -> List[str]:
        keys = self.inner.insert_many(batch)
        for (subject, consents), key in zip(batch, keys):
            self.events.append((self.op_index, "insert", key, subject, dict(consents)))
        return keys

    def read(self, key: str, purpose: str) -> Optional[Dict[str, object]]:
        result = self.inner.read(key, purpose)
        self.events.append((self.op_index, "read", key, purpose, result))
        return result

    def update(self, key: str, changes: Mapping[str, object]) -> bool:
        ok = self.inner.update(key, changes)
        self.events.append((self.op_index, "update", key, dict(changes), ok))
        return ok

    def toggle_consent(self, key: str, purpose: str, granted: bool) -> None:
        self.inner.toggle_consent(key, purpose, granted)
        self.events.append((self.op_index, "consent", key, purpose, granted))

    def delete(self, key: str) -> None:
        start = time.perf_counter_ns()
        self.inner.delete(key)
        elapsed = time.perf_counter_ns() - start
        self.events.append((self.op_index, "delete", key, elapsed))

    def subject_access(self, key: str) -> Dict[str, object]:
        export = self.inner.subject_access(key)
        # Keep only the exported rows: holding whole exports until the
        # chunk is checked would promote them into the collector's
        # oldest generation and add full collections the system itself
        # never causes.
        rows = [record.get("data") for record in export.get("records", ())]
        self.events.append((self.op_index, "access", key, rows))
        return export

    def audit(self, key: str) -> List[object]:
        entries = self.inner.audit(key)
        self.events.append((self.op_index, "audit", key, entries))
        return entries


@dataclass
class ReferenceModel:
    """What every key should hold, replayed from the recorded events."""

    records: Dict[str, Dict[str, object]] = field(default_factory=dict)
    subject_of: Dict[str, str] = field(default_factory=dict)
    analytics: Dict[str, bool] = field(default_factory=dict)
    #: ``(op_index, key, subject_id, record)`` of every erasure.
    erased: List[Tuple[int, str, str, Dict[str, object]]] = field(
        default_factory=list
    )
    #: User-record bytes the checked ops submitted (inserts + updates).
    user_bytes_submitted: int = 0

    def apply(self, events: Sequence[Tuple], tally: Optional[Tally]) -> None:
        """Advance the model over ``events``; charge mismatches to ``tally``.

        ``tally`` is None while loading: load events only seed the model.
        """
        for event in events:
            op_index, kind, key = event[0], event[1], event[2]
            if kind == "insert":
                subject, consents = event[3], event[4]
                self.records[key] = subject.user_record()
                self.subject_of[key] = subject.subject_id
                self.analytics[key] = PURPOSE_ANALYTICS in consents
                if tally is not None:
                    self.user_bytes_submitted += user_bytes(self.records[key])
                continue
            reason = self._check(op_index, kind, key, event)
            if reason is not None and tally is not None:
                tally.fail(op_index, reason)

    def _check(
        self, op_index: int, kind: str, key: str, event: Tuple
    ) -> Optional[str]:
        record = self.records[key]
        if kind == "read":
            purpose, result = event[3], event[4]
            if purpose == PURPOSE_ACCOUNT:
                expected = {f: record.get(f) for f in _READ_FIELDS}
            elif self.analytics[key]:
                expected = {"decade": (record["year_of_birthdate"] // 10) * 10}
            else:
                expected = None
            if result != expected:
                return f"read[{purpose}] disagrees with the consent model"
        elif kind == "consent":
            self.analytics[key] = event[4]
        elif kind == "update":
            record.update(event[3])
            self.user_bytes_submitted += user_bytes(event[3])
            if event[4] is not True:
                return "update reported failure"
        elif kind == "delete":
            self.erased.append(
                (op_index, key, self.subject_of[key], dict(record))
            )
            del self.records[key]
        elif kind == "access":
            if record not in event[3]:
                return "export lacks the subject's record"
        elif kind == "audit":
            subject_id = self.subject_of[key]
            entries = event[3]
            if not entries or not all(
                any(a.subject_id == subject_id for a in e.accesses) for e in entries
            ):
                return "audit log entries do not belong to the subject"
        return None


def check_erasures(system, model: ReferenceModel, tally: Tally) -> None:
    """Full-device oracle for every erased subject.

    Each erased subject's email and national id are unique to it, so
    neither may be left anywhere: the raw ``forensic_scan`` of the email
    and the live-excluding ``residue_counts`` of the national id must
    both read zero on the device and journal planes.  The record's
    membrane must be erased and a right-of-access export must no longer
    carry the plaintext.  ``residue_counts`` runs once over every erased
    subject; only a non-zero total is traced back to the subjects at
    fault.
    """
    dbfs = system.dbfs
    credential = system.ps.builtins.credential
    ids = [record["national_id"].encode() for _, _, _, record in model.erased]
    clean = not ids or not any(dbfs.residue_counts(ids).values())
    for op_index, key, subject_id, record in model.erased:
        national_id = record["national_id"].encode()
        if not clean and any(
            dbfs.residue_counts([national_id], subject_id=subject_id).values()
        ):
            tally.fail(op_index, "erased national id left residue")
        if any(dbfs.forensic_scan(record["email"].encode()).values()):
            tally.fail(op_index, "erased email still on the device or journal")
        if not dbfs.get_membrane(key, credential).erased:
            tally.fail(op_index, "erased record's membrane is not erased")
        export = system.rights.right_of_access(subject_id).export
        if record["email"] in json.dumps(export, default=str):
            tally.fail(op_index, "erased plaintext still exported")


# ---------------------------------------------------------------------------
# Set-up and the closed loop
# ---------------------------------------------------------------------------


def config(workload: Workload) -> Dict[str, object]:
    """The system configuration a run uses, as recorded beside its metrics."""
    return {
        "persona": workload.name,
        "population": workload.population,
        "shards": workload.shards,
        "telemetry": "default Telemetry() (trace 1 also compares "
                     "against Telemetry.disabled())",
        "io_delay_scale": 0.0,
        "workers": 0,
        "clients": 1,
        "loop": "closed",
        "record_codec": "v2",
        "with_machine": True,
        "cache_config": asdict(DEFAULT_CACHE_CONFIG),
        "journal_config": asdict(JournalConfig()),
        "chunk_ops": workload.chunk_ops,
        "warmup_ops": workload.warmup_ops,
        "min_ops": workload.min_ops,
    }


@dataclass
class Setup:
    """A loaded system, its recording adapter and the reference model."""

    adapter: RecordingAdapter
    runner: GDPRBenchRunner
    model: ReferenceModel
    seconds: float


def set_up(workload: Workload, seed: int, telemetry: bool = True) -> Setup:
    """Build the system and load the seeded population (timed)."""
    gc.collect()
    start = time.perf_counter()
    inner = RgpdOSAdapter(
        shards=workload.shards,
        telemetry=None if telemetry else Telemetry.disabled(),
        record_codec="v2",
        with_machine=True,
        workers=0,
        io_delay_scale=0.0,
    )
    adapter = RecordingAdapter(inner)
    runner = GDPRBenchRunner(adapter, seed=seed)
    runner.load(workload.population)
    seconds = time.perf_counter() - start
    model = ReferenceModel()
    model.apply(adapter.events, tally=None)
    adapter.events.clear()
    return Setup(adapter, runner, model, seconds)


@dataclass
class RunResult:
    """Timed ops of one run, in execution order (warm-up excluded)."""

    names: List[str] = field(default_factory=list)
    latency_ns: List[int] = field(default_factory=list)
    #: The erasure call alone, for each timed erase op.
    erase_ns: List[int] = field(default_factory=list)
    erasures: int = 0
    wall_ns: int = 0
    tally: Tally = field(default_factory=Tally)

    @property
    def ops(self) -> int:
        return len(self.latency_ns)


def required_samples(workload: Workload) -> Tuple[int, int]:
    """Timed ops and erasures a run needs: ten samples beyond each
    reported percentile (op p99, erase p90), and the workload's
    ``min_ops``."""
    erasures = samples_needed(0.90) if workload.name == "customer" else 0
    return max(workload.min_ops, samples_needed(0.99)), erasures


def persona_chunk(
    workload: Workload, runner: GDPRBenchRunner, size: int, draws: Random
) -> Tuple[List, List[str]]:
    """``build_persona_tasks`` for the next ``size`` ops of the workload.

    Erasures cost about a hundred times any other op, so a chunk whose
    sampled erasure count strays from the persona's share would swing
    the run's throughput with the dice rather than with the system.
    A chunk is therefore redrawn until it holds exactly its share of
    erasures.  A rejected draw has retired keys for its erasure pool;
    the runner's roster is restored before the next draw.
    """
    erasures = round(size * PERSONAS[workload.name].get(OP_DELETE, 0.0))
    roster = list(runner.keys)
    while True:
        tasks, names = build_persona_tasks(
            runner, workload.name, size, seed=draws.getrandbits(32)
        )
        if names.count(OP_DELETE) == erasures:
            return tasks, names
        runner.keys = list(roster)


class ClosedLoop:
    """One client running a workload's op list on one system.

    Each :meth:`step` generates the next chunk of ops from the seed,
    runs it, and checks its outputs against the reference model.  The
    first step is the untimed warm-up.  Two loops built from the same
    seed run the same op list.  With a ``recorder`` every timed op runs
    inside its root span.
    """

    def __init__(
        self,
        workload: Workload,
        setup: Setup,
        seed: int,
        recorder: Optional[SpanRecorder] = None,
    ) -> None:
        self.workload = workload
        self.setup = setup
        self.recorder = recorder
        self.result = RunResult()
        self._draws = Random(seed)
        self._op_index = 0
        self._warm = False

    def step(self, stop: Optional[Callable[[int], bool]] = None) -> None:
        """Run the next chunk; ``stop(wall_ns)``, asked after each timed
        op with the timed wall time so far, can end it early."""
        workload, adapter, result = self.workload, self.setup.adapter, self.result
        timed = self._warm
        size = workload.chunk_ops if timed else workload.warmup_ops
        tasks, names = persona_chunk(workload, self.setup.runner, size, self._draws)
        recorder = self.recorder if timed else None
        clock = time.perf_counter_ns
        chunk_start = clock()
        for task, name in zip(tasks, names):
            adapter.op_index = self._op_index
            start = clock()
            try:
                if recorder is None:
                    task()
                else:
                    with recorder.op():
                        task()
            except Exception as exc:  # count the op as failed, keep going
                result.tally.fail(
                    self._op_index, f"{name} raised {type(exc).__name__}"
                )
            end = clock()
            self._op_index += 1
            result.tally.attempted += 1
            if timed:
                result.names.append(name)
                result.latency_ns.append(end - start)
                result.erasures += name == OP_DELETE
                if stop is not None and stop(result.wall_ns + end - chunk_start):
                    break
        if timed:
            result.wall_ns += clock() - chunk_start
            result.erase_ns.extend(
                e[3] for e in adapter.events if e[1] == "delete"
            )
        self.setup.model.apply(adapter.events, result.tally)
        adapter.events.clear()
        if not timed:
            self.setup.model.user_bytes_submitted = 0
        self._warm = True


def drive(workload: Workload, setup: Setup, seed: int, seconds: float) -> RunResult:
    """Run the workload for at least ``seconds`` of timed wall time and
    until every reported percentile has enough samples."""
    loop = ClosedLoop(workload, setup, seed)
    need_ops, need_erasures = required_samples(workload)
    budget_ns = int(seconds * 1e9)

    def enough(wall_ns: int) -> bool:
        result = loop.result
        return (
            wall_ns >= budget_ns
            and result.ops >= need_ops
            and result.erasures >= need_erasures
        )

    loop.step()
    while not enough(loop.result.wall_ns):
        loop.step(stop=enough)
    return loop.result


def interleave(
    first: ClosedLoop,
    second: ClosedLoop,
    seconds: float,
    max_ops: Optional[int] = None,
    around_second: Callable[[], ContextManager] = nullcontext,
) -> None:
    """Run the same op list on two systems, alternating whole chunks,
    until ``first`` has ``seconds`` of timed wall time or ``max_ops``
    timed ops.  Both loops must have run their warm-up step.

    Alternating chunks of a fraction of a second exposes both systems
    to the same drift in the host's speed, so the ratio of their times
    reflects the systems rather than the moment each ran.
    """
    budget_ns = int(seconds * 1e9)
    while first.result.wall_ns < budget_ns and (
        max_ops is None or first.result.ops < max_ops
    ):
        first.step()
        with around_second():
            second.step()
