"""The rgpdOS system facade — the library's main entry point.

:class:`RgpdOS` assembles the full stack of Fig. 4 (left):

* the purpose-kernel **machine** (general-purpose kernel, rgpdOS
  kernel, one IO driver kernel per device);
* **DBFS** on its own block device, plus the traditional **NPD
  filesystem** on a second device;
* the **Processing Store** (the only entry point), the **built-ins**,
  the per-invocation **DEDs**, and the **processing log**;
* the **authority escrow** keys for the right to be forgotten;
* the **subject-rights** API and the article-indexed **audit engine**.

Typical use::

    os_ = RgpdOS(operator_name="acme")
    os_.install('''
        type user { fields { name: string, year_of_birthdate: int };
                    view v_ano { year_of_birthdate };
                    consent { stats: v_ano };
                    collection { web_form: signup.html };
                    age: 1Y; }
        purpose stats { description: "Aggregate statistics";
                        uses: user via v_ano; basis: consent; }
    ''')
    ref = os_.collect("user", {"name": "Ada", "year_of_birthdate": 1815},
                      subject_id="ada", method="web_form")
    os_.register(my_stats_fn, purpose="stats")
    result = os_.invoke("my_stats_fn", target="user")
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, Mapping, Optional,
                    Sequence, Tuple, Union)

from .. import errors
from ..kernel.machine import Machine, MachineConfig
from ..kernel.tee import TEEPlatform
from ..kernel.subkernel import IORequest
from ..obs import EvidenceTrail, MetricsRegistry, Telemetry
from ..storage.block import BlockDevice
from ..storage.cache import CacheConfig, DEFAULT_CACHE_CONFIG
from ..storage.dbfs import DatabaseFS
from ..storage.extfs import FileBasedFS
from ..storage.journal import JournalConfig
from ..storage.shard import ShardedDBFS
from .active_data import PDRef
from .builtins import EraseReport
from .clock import Clock
from .crypto import Authority
from .datatypes import PDType
from .ded import DEDCostModel, InvocationResult
from .processing_log import ProcessingLog
from .processing_store import Processing, ProcessingStore
from .purposes import Purpose
from .rights import SubjectRights

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.audit import AuditReport


def _device_driver(device: BlockDevice) -> Callable[[IORequest], bytes]:
    """Adapt a block device to the IO-driver-kernel interface."""

    def driver(request: IORequest) -> bytes:
        block_no = int(request.target)
        if request.op == "read":
            return device.read(block_no)
        device.write(block_no, request.payload)
        return b""

    return driver


class RgpdOS:
    """One GDPR-aware operating system instance."""

    def __init__(
        self,
        operator_name: str = "operator",
        authority: Optional[Authority] = None,
        machine_config: Optional[MachineConfig] = None,
        cost_model: Optional[DEDCostModel] = None,
        key_bits: int = 512,
        seed: int = 2023,
        with_machine: bool = True,
        cache_config: Optional[CacheConfig] = None,
        shards: int = 1,
        journal_blocks: int = 256,
        journal_config: Optional[JournalConfig] = None,
        pd_device_blocks: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        workers: int = 0,
        io_delay_scale: float = 0.0,
    ) -> None:
        self.clock = Clock()
        #: Cross-layer telemetry (``repro.obs``): one metrics registry
        #: and one tracer shared by the PS, DEDs, rights API, DBFS,
        #: journals and block devices.  Histograms, counters and gauges
        #: are always on: the default is ``Telemetry(tracing=False)``,
        #: one latency sample per operation and no span.  Spans are
        #: opt-in: pass ``Telemetry()`` for the cross-layer span trees
        #: too, at several times the probe cost (docs/API.md gives the
        #: measured ratios).  ``Telemetry.disabled()`` strips every
        #: probe down to a null-object no-op.
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(tracing=False)
        )
        self.operator_name = operator_name
        self.authority = authority or Authority(bits=key_bits, seed=seed)
        self.operator_key = self.authority.issue_operator_key(operator_name)
        #: Fast-path knobs (see ``repro.storage.cache.CacheConfig``),
        #: threaded down to the block device, DBFS and the PS's
        #: decision cache.  ``CacheConfig.disabled()`` restores the
        #: un-cached behaviour — performance changes, results never do.
        self.cache_config = (
            cache_config if cache_config is not None else DEFAULT_CACHE_CONFIG
        )
        if shards < 1:
            raise errors.GDPRError(f"shards must be >= 1, got {shards}")
        self.shards = shards

        # Storage: one device per PD shard (under DBFS), one for NPD.
        # ``shards=1`` (the default) keeps the seed layout: a single
        # plain DatabaseFS on a single device.  ``shards=N`` scales the
        # PD side out to N ShardedDBFS shards, each on its own device
        # behind its own driver kernel.
        device_kwargs: Dict[str, object] = {
            "page_cache_blocks": self.cache_config.page_cache_blocks,
            "telemetry": self.telemetry,
            "io_delay_scale": io_delay_scale,
        }
        self.io_delay_scale = io_delay_scale
        if pd_device_blocks is not None:
            device_kwargs["block_count"] = pd_device_blocks
        self.pd_devices = [
            BlockDevice(**device_kwargs) for _ in range(shards)
        ]
        self.pd_device = self.pd_devices[0]
        if shards == 1:
            self.dbfs: Union[DatabaseFS, ShardedDBFS] = DatabaseFS(
                device=self.pd_device,
                operator_key=self.operator_key,
                journal_blocks=journal_blocks,
                cache_config=self.cache_config,
                journal_config=journal_config,
                telemetry=self.telemetry,
            )
        else:
            self.dbfs = ShardedDBFS(
                devices=self.pd_devices,
                operator_key=self.operator_key,
                journal_blocks=journal_blocks,
                cache_config=self.cache_config,
                journal_config=journal_config,
                telemetry=self.telemetry,
            )
        self.npd_fs = FileBasedFS()

        # The GDPR machinery.  Every instance carries a TEE platform so
        # invocations can opt into enclave-protected DED execution
        # (paper § 3(3)) with ``invoke(..., use_tee=True)``.
        self.log = ProcessingLog()
        self.tee_platform = TEEPlatform(
            platform_id=f"tee-{operator_name}", seed=seed
        )
        from ..kernel.pim import DEDPlacer

        self.ps = ProcessingStore(
            dbfs=self.dbfs,
            clock=self.clock,
            log=self.log,
            cost_model=cost_model,
            tee_platform=self.tee_platform,
            placer=DEDPlacer(),
            cache_config=self.cache_config,
            telemetry=self.telemetry,
        )
        self.rights = SubjectRights(
            dbfs=self.dbfs,
            builtins=self.ps.builtins,
            log=self.log,
            clock=self.clock,
            telemetry=self.telemetry,
        )
        # Art. 33/34: breach monitoring over the mediation counters.
        from .breach import BreachMonitor  # deferred: breach uses log types

        self.breach_monitor = BreachMonitor(
            dbfs=self.dbfs, log=self.log, clock=self.clock
        )

        # Continuous compliance observability (PR 8): a tamper-evident
        # evidence trail, a residue watchlist fed by erasures, and the
        # article-indexed audit engine.  The monitors daemon is built on
        # demand by :meth:`start_monitors`.
        from ..obs.audit import AuditEngine  # deferred: audit reads core
        from ..obs.monitors import (  # deferred: monitors read storage
            MonitorDaemon,
            ResidueWatchlist,
            needle_digest,
        )

        self.evidence = EvidenceTrail()
        self.residue_watchlist = ResidueWatchlist()
        self.audit_engine = AuditEngine(self)
        self.monitors: Optional[MonitorDaemon] = None
        # Proactive retention enforcement (PR 9): built on demand by
        # start_monitors(expiry_daemon=True).
        self.expiry_daemon = None

        def _on_erase(
            subject_id: str,
            needles: Sequence[bytes],
            erased: Sequence[str],
            residue: Mapping[str, int],
        ) -> None:
            # Erased plaintext becomes the scrubber's watchlist; the
            # trail records digests only — the whole point of erasure
            # is that the bytes themselves stop existing anywhere.
            self.residue_watchlist.register(subject_id, needles)
            self.evidence.append(
                kind="erasure",
                source="builtins.delete",
                payload={
                    "subject_id": subject_id,
                    "erased_records": len(erased),
                    "residue_device_blocks": residue["device_blocks"],
                    "residue_journal_records": residue["journal_records"],
                    "needle_digests": [needle_digest(n) for n in needles],
                },
                at=self.clock.now(),
            )

        self.ps.builtins.erase_observers.append(_on_erase)

        # The purpose-kernel machine (optional for lightweight uses).
        # Shard 0's driver keeps the historical "pd-nvme" name; extra
        # shards get "pd-nvme1", "pd-nvme2", ... driver kernels.  The
        # default MachineConfig fits two drivers, so a multi-shard
        # machine (when the caller didn't size one) is scaled to hold
        # one driver kernel per device.
        self.machine: Optional[Machine] = None
        if with_machine:
            drivers = {"pd-nvme": _device_driver(self.pd_devices[0])}
            for index, device in enumerate(self.pd_devices[1:], start=1):
                drivers[f"pd-nvme{index}"] = _device_driver(device)
            drivers["npd-nvme"] = _device_driver(self.npd_fs.device)
            if machine_config is None and len(drivers) > 2:
                defaults = MachineConfig()
                machine_config = MachineConfig(
                    total_cores=max(
                        defaults.total_cores,
                        defaults.rgpdos_cores
                        + defaults.gp_cores
                        + len(drivers) * defaults.driver_cores_each,
                    ),
                    total_frames=max(
                        defaults.total_frames,
                        defaults.rgpdos_frames
                        + defaults.gp_frames
                        + len(drivers) * defaults.driver_frames_each,
                    ),
                )
            self.machine = Machine(
                drivers=drivers,
                config=machine_config,
                clock=self.clock,
                telemetry=self.telemetry,
            ).boot()
            self.machine.rgpdos.mount("dbfs", self.dbfs)
            self.machine.rgpdos.mount("ps", self.ps)
            self.machine.rgpdos.mount("log", self.log)

        self._installed_types: Dict[str, PDType] = {}
        self._installed_purposes: Dict[str, Purpose] = {}

        # The concurrent request engine (PR 6).  ``workers=0`` (the
        # default) keeps the serial seed path: no threads, no engine.
        from ..engine import RequestEngine  # deferred: engine sits above core

        self.engine: Optional[RequestEngine] = None
        if workers > 0:
            self.start_engine(workers=workers)

        # Pull-based stats: the registry calls back at snapshot time so
        # idle systems pay nothing for bookkeeping between exports.
        self.telemetry.registry.register_collector(self._publish_stats_gauges)

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def install(self, source: str) -> Tuple[Dict[str, PDType], Dict[str, Purpose]]:
        """Install a DSL source: create its types in DBFS, declare its
        purposes in the PS.  Returns what was installed."""
        from ..dsl.loader import load_source  # deferred: dsl sits above core

        types, purposes = load_source(source)
        for pd_type in types.values():
            self.install_type(pd_type)
        for purpose in purposes.values():
            self.install_purpose(purpose)
        return types, purposes

    def install_type(self, pd_type: PDType) -> None:
        """Install one PD type built directly in Python."""
        self.dbfs.create_type(pd_type, self.ps.builtins.credential)
        self._installed_types[pd_type.name] = pd_type

    def install_purpose(self, purpose: Purpose) -> None:
        self.ps.declare_purpose(purpose)
        self._installed_purposes[purpose.name] = purpose

    def evolve_type(self, new_type: PDType) -> PDType:
        """Compatibly evolve an installed type (see
        :meth:`DatabaseFS.evolve_type` for the compatibility rules)."""
        evolved = self.dbfs.evolve_type(new_type, self.ps.builtins.credential)
        self._installed_types[new_type.name] = evolved
        return evolved

    def types(self) -> Dict[str, PDType]:
        return dict(self._installed_types)

    def purposes(self) -> Dict[str, Purpose]:
        return dict(self._installed_purposes)

    # ------------------------------------------------------------------
    # The PS interface (the paper's only entry point)
    # ------------------------------------------------------------------

    def register(
        self,
        fn: Callable,
        purpose: Optional[str] = None,
        name: Optional[str] = None,
        aggregate: bool = False,
        sysadmin_approved: bool = False,
    ) -> Processing:
        """``ps_register`` — see :meth:`ProcessingStore.ps_register`."""
        return self.ps.ps_register(
            fn,
            purpose=purpose,
            name=name,
            aggregate=aggregate,
            sysadmin_approved=sysadmin_approved,
        )

    def invoke(
        self,
        processing_name: str,
        target: Union[PDRef, str, Sequence[PDRef], None] = None,
        **kwargs: object,
    ) -> Union[InvocationResult, PDRef, EraseReport, None]:
        """``ps_invoke`` — see :meth:`ProcessingStore.ps_invoke`."""
        return self.ps.ps_invoke(processing_name, target=target, **kwargs)

    def collect(
        self,
        type_name: str,
        record: Mapping[str, object],
        subject_id: str,
        method: str,
        consents: Optional[Mapping[str, str]] = None,
    ) -> PDRef:
        """Collect one PD record (built-in acquisition)."""
        return self.ps.builtins.acquisition(
            type_name=type_name,
            record=record,
            subject_id=subject_id,
            method=method,
            consents=consents,
        )

    # ------------------------------------------------------------------
    # The concurrent request engine
    # ------------------------------------------------------------------

    def start_engine(
        self,
        workers: int = 4,
        max_in_flight: Optional[int] = None,
    ) -> "RequestEngine":
        """Start a request engine and wire it into the stack.

        Installs the engine's scatter pool as the sharded store's
        fan-out runner (type-level queries hit all shards
        concurrently) and as the rights layer's bulk runner.
        Idempotent while an engine is running.
        """
        from ..engine import RequestEngine

        if self.engine is not None and self.engine.running:
            return self.engine
        self.engine = RequestEngine(
            workers=workers,
            max_in_flight=max_in_flight,
            telemetry=self.telemetry,
        ).start()
        if isinstance(self.dbfs, ShardedDBFS):
            self.dbfs.set_fanout(self.engine.scatter)
        self.rights.set_fanout(self.engine.scatter)
        return self.engine

    def stop_engine(self) -> None:
        """Drain and stop the engine; restores the serial fan-out."""
        if self.engine is None:
            return
        self.engine.stop()
        if isinstance(self.dbfs, ShardedDBFS):
            self.dbfs.set_fanout(None)
        self.rights.set_fanout(None)
        self.engine = None

    def invoke_async(
        self,
        processing_name: str,
        target: Union[PDRef, str, Sequence[PDRef], None] = None,
        **kwargs: object,
    ):
        """``ps_invoke`` on the engine; returns a Future.

        The fairness lane is the processing's declared purpose, so one
        purpose's burst queues behind its own lane, not everyone's.
        Requires a running engine (``workers=N`` or ``start_engine``).
        """
        if self.engine is None or not self.engine.running:
            raise errors.GDPRError(
                "invoke_async needs a running request engine; construct "
                "RgpdOS(workers=N) or call start_engine() first"
            )
        processing = self.ps._processings.get(processing_name)
        lane = processing.purpose.name if processing is not None else "default"

        # Bind the invocation in a closure instead of spreading kwargs
        # through submit(): submit consumes a ``purpose`` kwarg as the
        # fairness lane, and a caller kwarg literally named "purpose"
        # (plausible for a GDPR processing) must reach ps_invoke, not
        # collide with the lane and raise TypeError.
        def _invoke() -> object:
            return self.ps.ps_invoke(processing_name, target=target, **kwargs)

        return self.engine.submit(_invoke, purpose=lane)

    # ------------------------------------------------------------------
    # Compliance & time
    # ------------------------------------------------------------------

    def audit(self) -> "AuditReport":
        """Run the article-indexed audit (``repro.obs.audit``).

        One :class:`~repro.obs.audit.AuditReport`: the six article
        controls and the eight § 2 technical rules, each indexed by
        GDPR article with resolvable evidence references; the run
        itself is sealed into the evidence trail.
        """
        return self.audit_engine.run()

    def start_monitors(
        self,
        interval_seconds: float = 0.05,
        sample_blocks: int = 64,
        background: bool = False,
        expiry_daemon: bool = False,
        expiry_wave_size: int = 64,
    ):
        """Build (and optionally start) the always-on compliance
        monitors: residue scrubber, TTL watcher, Art. 33 deadline
        watcher, journal-bound watcher — and, with
        ``expiry_daemon=True``, the proactive retention enforcer that
        drains the timer wheel into bounded erasure waves.

        With ``background=False`` (the default) the daemon is returned
        ready for deterministic ticking (``run_for_ticks``), which is
        what the tests, the CLI's ``--continuous`` mode and the
        benchmarks drive.  ``background=True`` starts the wall-clock
        daemon thread, submitting ticks through the request engine's
        ``monitors`` lane when one is running.
        """
        from ..obs.monitors import (
            BreachDeadlineWatcherMonitor,
            ExpiryDaemon,
            JournalBoundWatcherMonitor,
            MonitorDaemon,
            ResidueScrubberMonitor,
            TTLWatcherMonitor,
        )

        if self.monitors is not None:
            if background:
                self.monitors.start()
            return self.monitors
        monitors: List[object] = [
            ResidueScrubberMonitor(
                dbfs=self.dbfs,
                watchlist=self.residue_watchlist,
                telemetry=self.telemetry,
                sample_blocks=sample_blocks,
            ),
            TTLWatcherMonitor(
                dbfs=self.dbfs, clock=self.clock,
                telemetry=self.telemetry,
            ),
            BreachDeadlineWatcherMonitor(
                breach_monitor=self.breach_monitor,
                clock=self.clock,
                telemetry=self.telemetry,
            ),
            JournalBoundWatcherMonitor(
                dbfs=self.dbfs, telemetry=self.telemetry,
            ),
        ]
        if expiry_daemon:
            self.expiry_daemon = ExpiryDaemon(
                dbfs=self.dbfs,
                clock=self.clock,
                builtins=self.ps.builtins,
                trail=self.evidence,
                telemetry=self.telemetry,
                engine=self.engine,
                wave_size=expiry_wave_size,
            )
            monitors.append(self.expiry_daemon)
        self.monitors = MonitorDaemon(
            monitors=monitors,
            clock=self.clock,
            trail=self.evidence,
            telemetry=self.telemetry,
            interval_seconds=interval_seconds,
            engine=self.engine,
        )
        if background:
            self.monitors.start()
        return self.monitors

    def stop_monitors(self) -> None:
        """Stop the monitor daemon thread (if running) and drop it."""
        if self.monitors is None:
            return
        self.monitors.stop()
        self.monitors = None
        self.expiry_daemon = None

    def advance_time(self, seconds: float) -> float:
        """Move simulated time forward (TTL expiry etc.)."""
        return self.clock.advance(seconds)

    def _stat_gauge_values(self) -> Dict[str, int]:
        """Every numeric ``stats()`` field as a flat gauge mapping."""
        dbfs_stats = self.dbfs.stats
        shards = self.dbfs.shards
        return {
            "rgpdos.dbfs.records": len(self.dbfs.all_uids()),
            "rgpdos.dbfs.subjects": len(self.dbfs.list_subjects()),
            "rgpdos.dbfs.stores": dbfs_stats.stores,
            "rgpdos.dbfs.deletes": dbfs_stats.deletes,
            "rgpdos.dbfs.denied_accesses": dbfs_stats.denied_accesses,
            "rgpdos.dbfs.shards": self.dbfs.shard_count,
            "rgpdos.index.page_reads": dbfs_stats.index_page_reads,
            "rgpdos.index.bloom_hits": dbfs_stats.index_bloom_hits,
            "rgpdos.index.bloom_skips": dbfs_stats.index_bloom_skips,
            "rgpdos.pd_device.reads": sum(d.stats.reads for d in self.pd_devices),
            "rgpdos.pd_device.writes": sum(d.stats.writes for d in self.pd_devices),
            "rgpdos.pd_device.used_blocks": sum(
                d.used_blocks for d in self.pd_devices
            ),
            "rgpdos.journal.commits": sum(s.journal.stats.commits for s in shards),
            "rgpdos.journal.flushes": sum(s.journal.stats.flushes for s in shards),
            "rgpdos.journal.group_commits": sum(
                s.journal.stats.group_commits for s in shards
            ),
            "rgpdos.journal.batched_ops": sum(
                s.journal.stats.batched_ops for s in shards
            ),
            "rgpdos.journal.checkpoints": sum(
                s.journal.stats.checkpoints for s in shards
            ),
            "rgpdos.journal.checkpointed_records": sum(
                s.journal.stats.checkpointed_records for s in shards
            ),
            "rgpdos.journal.live_records": sum(len(s.journal) for s in shards),
            "rgpdos.journal.blocks_in_use": sum(
                s.journal.blocks_in_use for s in shards
            ),
        }

    def _publish_stats_gauges(self, registry: MetricsRegistry) -> None:
        """Collector hook: mirror the operational snapshot into gauges
        so Prometheus scrapes see the same numbers ``stats()`` reports."""
        for name, value in self._stat_gauge_values().items():
            registry.gauge(name).set(value)

    def stats(self) -> Dict[str, object]:
        """Operational snapshot across the stack.

        The numeric fields are served from the telemetry registry (the
        same gauges the Prometheus exporter scrapes); with telemetry
        disabled they are computed directly.  Either way the shape is
        identical, including the ``journal`` block folding PR 2's
        group-commit / checkpoint machinery into the snapshot.
        """
        if self.telemetry.enabled:
            registry = self.telemetry.registry
            registry.collect()
            values = {
                name: registry.gauge_value(name)
                for name in self._stat_gauge_values()
            }
        else:
            values = self._stat_gauge_values()
        snapshot: Dict[str, object] = {
            "clock": self.clock.now(),
            "dbfs": {
                "types": self.dbfs.list_types(),
                "records": values["rgpdos.dbfs.records"],
                "subjects": values["rgpdos.dbfs.subjects"],
                "stores": values["rgpdos.dbfs.stores"],
                "deletes": values["rgpdos.dbfs.deletes"],
                "denied_accesses": values["rgpdos.dbfs.denied_accesses"],
                "shards": values["rgpdos.dbfs.shards"],
            },
            "indexes": {
                "page_reads": values["rgpdos.index.page_reads"],
                "bloom_hits": values["rgpdos.index.bloom_hits"],
                "bloom_skips": values["rgpdos.index.bloom_skips"],
            },
            "pd_device": {
                "reads": values["rgpdos.pd_device.reads"],
                "writes": values["rgpdos.pd_device.writes"],
                "used_blocks": values["rgpdos.pd_device.used_blocks"],
            },
            "journal": {
                "commits": values["rgpdos.journal.commits"],
                "flushes": values["rgpdos.journal.flushes"],
                "group_commits": values["rgpdos.journal.group_commits"],
                "batched_ops": values["rgpdos.journal.batched_ops"],
                "checkpoints": values["rgpdos.journal.checkpoints"],
                "checkpointed_records": values["rgpdos.journal.checkpointed_records"],
                "live_records": values["rgpdos.journal.live_records"],
                "blocks_in_use": values["rgpdos.journal.blocks_in_use"],
            },
            "log": self.log.activity_report(),
        }
        if self.machine is not None:
            snapshot["machine"] = self.machine.resource_report()
        if self.engine is not None:
            snapshot["engine"] = self.engine.as_dict()
            snapshot["engine"]["mvcc"] = self.dbfs.mvcc_stats()
        snapshot["audit"] = {
            "evidence_entries": len(self.evidence),
            "evidence_head": self.evidence.head,
            "watch_needles": len(self.residue_watchlist),
            "last_report": (
                self.audit_engine.last_report.summary()
                if self.audit_engine.last_report is not None
                else None
            ),
        }
        if self.monitors is not None:
            snapshot["monitors"] = self.monitors.as_dict()
        return snapshot

    def cache_stats(self) -> Dict[str, object]:
        """Every fast-path cache in the stack, one report.

        Aggregates the block-device page cache, the DBFS record /
        listing / membrane caches, journal group-commit counters, and
        the PS's membrane-decision cache.
        """
        report: Dict[str, object] = dict(self.dbfs.cache_stats())
        report["decision_cache"] = self.ps.decision_cache.as_dict()
        return report

    def shard_stats(self) -> Sequence[Dict[str, object]]:
        """Per-shard occupancy and journal summary (one entry when
        ``shards=1``).  See :meth:`ShardedDBFS.shard_stats`."""
        return self.dbfs.shard_stats()
