"""Unit tests for DED placement (host / PIM / storage, § 3(3))."""

import sys
import threading
import tracemalloc

import pytest

from repro import errors
from repro.kernel.pim import (
    SITE_HOST,
    SITE_PIM,
    SITE_STORAGE,
    ComputeSite,
    DEDPlacer,
    default_sites,
)


class TestComputeSite:
    def test_estimate_components(self):
        site = ComputeSite(
            name="x", compute_seconds_per_unit=1.0, workers=2,
            transfer_bytes_per_second=100.0, launch_seconds=5.0,
        )
        # launch 5 + transfer (10*20/100=2) + compute (10*3*1/2=15) = 22
        assert site.estimate(10, 20, 3.0) == pytest.approx(22.0)

    def test_free_movement(self):
        site = ComputeSite(
            name="x", compute_seconds_per_unit=1.0, workers=1,
            transfer_bytes_per_second=float("inf"), launch_seconds=0.0,
        )
        assert site.estimate(10, 1_000_000, 1.0) == pytest.approx(10.0)

    def test_negative_workload_rejected(self):
        site = default_sites()[SITE_HOST]
        with pytest.raises(errors.KernelError):
            site.estimate(-1, 10, 1.0)


class TestPlacer:
    @pytest.fixture
    def placer(self):
        return DEDPlacer()

    def test_host_required(self):
        with pytest.raises(errors.KernelError):
            DEDPlacer(sites={"pim": default_sites()[SITE_PIM]})

    def test_small_workload_stays_on_host(self, placer):
        decision = placer.place(records=10, bytes_per_record=128)
        assert decision.site == SITE_HOST

    def test_huge_scan_moves_near_data(self, placer):
        decision = placer.place(
            records=10_000_000, bytes_per_record=4096, compute_intensity=0.5
        )
        assert decision.site in (SITE_PIM, SITE_STORAGE)
        assert decision.speedup_over_host() > 1.0

    def test_compute_heavy_workload_prefers_host_longer(self, placer):
        light = placer.crossover_records(
            bytes_per_record=4096, compute_intensity=0.1
        )
        heavy = placer.crossover_records(
            bytes_per_record=4096, compute_intensity=10.0
        )
        assert light < heavy

    def test_wider_records_cross_over_sooner(self, placer):
        wide = placer.crossover_records(bytes_per_record=65536)
        narrow = placer.crossover_records(bytes_per_record=64)
        assert wide < narrow

    def test_crossover_is_consistent_with_place(self, placer):
        crossover = placer.crossover_records(
            bytes_per_record=4096, compute_intensity=1.0
        )
        below = placer.place(crossover // 2 or 1, 4096, 1.0)
        above = placer.place(crossover * 2, 4096, 1.0)
        assert below.site == SITE_HOST or crossover <= 1
        assert above.site != SITE_HOST

    def test_estimates_cover_all_sites(self, placer):
        decision = placer.place(100, 100)
        assert set(decision.estimates) == set(default_sites())

    def test_placement_report_counts(self, placer):
        placer.place(10, 128)
        placer.place(10, 128)
        placer.place(50_000_000, 4096, 0.1)
        report = placer.placement_report()
        assert sum(report.values()) == 3
        assert report.get(SITE_HOST, 0) >= 2

    def test_placer_holds_no_per_call_state(self, placer):
        """The placer keeps counts, not decisions: memory it retains
        does not grow with the number of placements."""
        placer.place(10, 128)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for index in range(10_000):
                placer.place(10 + index % 7, 128)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        grown = sum(
            diff.size_diff
            for diff in after.compare_to(before, "filename")
            if diff.traceback[0].filename.endswith("pim.py")
        )
        assert grown < 1024
        assert sum(placer.placement_report().values()) == 10_001

    def test_parallel_placements_all_counted(self, placer):
        def worker():
            for _ in range(500):
                placer.place(10, 128)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert placer.placement_report() == {SITE_HOST: 4000}
