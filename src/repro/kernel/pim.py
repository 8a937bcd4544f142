"""DED placement: host, Processing-in-Memory, Processing-in-Storage.

Paper § 3(3): *"DED could be executed in multiple locations with the
help of Processing in Memory (e.g. UPMEM) and Processing in Storage."*

This module models that placement decision.  Three compute sites:

* **host** — fast cores, but every consented record must cross the
  memory/storage interconnect into the DED;
* **pim** — UPMEM-style DPUs: many slow cores *inside* the memory
  banks; data movement to the compute is (near) free, compute is
  slower and parallel across DPUs;
* **storage** — in-SSD processors: no movement at all, slowest and
  least parallel compute, highest launch cost.

The cost model is deliberately simple and fully parameterised — the
experiment is about *where the crossover falls*, which is a shape, not
an absolute number: big scans with light per-record compute favour
near-data execution; small or compute-heavy processings favour the
host.  This is the canonical PIM trade-off (Nider et al., ATC'21,
which the paper cites for the idea).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .. import errors

SITE_HOST = "host"
SITE_PIM = "pim"
SITE_STORAGE = "storage"
SITES = (SITE_HOST, SITE_PIM, SITE_STORAGE)


@dataclass(frozen=True)
class ComputeSite:
    """One place a DED can run, with its cost parameters.

    ``compute_seconds_per_unit`` is the time for one unit of
    per-record compute intensity on one of the site's workers;
    ``workers`` execute records in parallel; ``transfer_bytes_per_second``
    prices moving a record's bytes to the site (``None`` = free);
    ``launch_seconds`` is the fixed cost of shipping the DED there.
    """

    name: str
    compute_seconds_per_unit: float
    workers: int
    transfer_bytes_per_second: float  # float('inf') means free movement
    launch_seconds: float

    def estimate(
        self,
        records: int,
        bytes_per_record: int,
        compute_intensity: float,
    ) -> float:
        """Predicted latency for one DED execution at this site."""
        if records < 0 or bytes_per_record < 0 or compute_intensity < 0:
            raise errors.KernelError("negative workload parameters")
        transfer = (
            records * bytes_per_record / self.transfer_bytes_per_second
            if self.transfer_bytes_per_second != float("inf")
            else 0.0
        )
        compute = (
            records * compute_intensity * self.compute_seconds_per_unit
            / self.workers
        )
        return self.launch_seconds + transfer + compute


def default_sites() -> Dict[str, ComputeSite]:
    """Parameters loosely shaped on a host CPU vs UPMEM vs smart SSD.

    Host: few fast cores behind a ~16 GB/s interconnect.
    PIM: thousands of ~20x-slower DPUs with free movement, costly launch.
    Storage: hundreds of ~50x-slower cores, free movement, costliest launch.
    """
    return {
        SITE_HOST: ComputeSite(
            name=SITE_HOST,
            compute_seconds_per_unit=1e-7,
            workers=8,
            transfer_bytes_per_second=16e9,
            launch_seconds=1e-6,
        ),
        SITE_PIM: ComputeSite(
            name=SITE_PIM,
            # Aggregate DPU throughput is below the host's (DPUs lack
            # the host's wide/fast cores); what PIM buys is the free
            # data movement.
            compute_seconds_per_unit=5e-5,
            workers=2560,
            transfer_bytes_per_second=float("inf"),
            launch_seconds=2e-4,
        ),
        SITE_STORAGE: ComputeSite(
            name=SITE_STORAGE,
            compute_seconds_per_unit=5e-5,
            workers=256,
            transfer_bytes_per_second=float("inf"),
            launch_seconds=5e-4,
        ),
    }


@dataclass
class PlacementDecision:
    """Outcome of one placement query."""

    site: str
    estimates: Dict[str, float]
    records: int
    bytes_per_record: int
    compute_intensity: float

    def speedup_over_host(self) -> float:
        return self.estimates[SITE_HOST] / self.estimates[self.site]


class DEDPlacer:
    """Chooses where to run a DED, given the workload shape.

    The DED knows, after ``ded_filter``, exactly how many records it
    will touch and how wide they are — which is what makes automatic
    placement feasible in this architecture.
    """

    def __init__(self, sites: Dict[str, ComputeSite] = None) -> None:
        self.sites = sites or default_sites()
        if SITE_HOST not in self.sites:
            raise errors.KernelError("a host site is mandatory")
        # Per-site decision counts: a long-running system places once
        # per invocation, so keeping the decisions themselves would
        # grow without bound.  Locked: engine workers place
        # concurrently and ``+= 1`` is a read-modify-write.
        self._site_counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    def place(
        self,
        records: int,
        bytes_per_record: int,
        compute_intensity: float = 1.0,
    ) -> PlacementDecision:
        estimates = {
            name: site.estimate(records, bytes_per_record, compute_intensity)
            for name, site in self.sites.items()
        }
        best = min(sorted(estimates), key=lambda name: estimates[name])
        decision = PlacementDecision(
            site=best,
            estimates=estimates,
            records=records,
            bytes_per_record=bytes_per_record,
            compute_intensity=compute_intensity,
        )
        with self._lock:
            self._site_counts[best] = self._site_counts.get(best, 0) + 1
        return decision

    def crossover_records(
        self,
        bytes_per_record: int,
        compute_intensity: float = 1.0,
        low: int = 1,
        high: int = 1 << 30,
    ) -> int:
        """Smallest record count at which a near-data site beats the
        host (binary search over the monotone cost gap); ``high`` if
        the host wins everywhere in range."""
        def host_wins(records: int) -> bool:
            decision = self.sites
            host = decision[SITE_HOST].estimate(
                records, bytes_per_record, compute_intensity
            )
            near = min(
                site.estimate(records, bytes_per_record, compute_intensity)
                for name, site in decision.items()
                if name != SITE_HOST
            )
            return host <= near

        if not host_wins(low):
            return low
        if host_wins(high):
            return high
        while low + 1 < high:
            mid = (low + high) // 2
            if host_wins(mid):
                low = mid
            else:
                high = mid
        return high

    def placement_report(self) -> Dict[str, int]:
        """Decisions made so far, per chosen site."""
        with self._lock:
            return dict(self._site_counts)
