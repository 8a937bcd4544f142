"""Regression: the expiry daemon's subscription and wheel must survive a
true-crash remount, on the unsharded and the sharded path alike.

A true-crash remount (``remount_from_device`` /
``remount_from_devices``) builds brand-new store objects.  They publish
into the crashed store's committed-change feed (``feed=``), so a daemon
subscribed before the crash keeps hearing store/erase events, and
``ExpiryDaemon.rebind`` re-points the daemon at the recovered store and
re-seeds a fresh wheel from the recovered membranes.  Repeating the
recovery sequence must never subscribe the daemon twice: with
duplicate registrations every store reaches the wheel once per
surviving registration.

The ``Test*`` classes run against a 3-shard fleet; their
``*Unsharded`` subclasses rerun every test against a single
``DatabaseFS``.
"""

import pytest

from conftest import LISTING1_DECLARATIONS
from repro import RgpdOS
from repro.core.active_data import AccessCredential
from repro.obs.monitors import ExpiryDaemon
from repro.storage.dbfs import DatabaseFS
from repro.storage.shard import ShardedDBFS

YEAR = 365 * 86400.0


@pytest.fixture
def shards():
    return 3


@pytest.fixture
def system(shared_authority, shards):
    os_ = RgpdOS(
        operator_name="ttl-remount",
        authority=shared_authority,
        with_machine=False,
        pd_device_blocks=512,
        shards=shards,
    )
    os_.install(LISTING1_DECLARATIONS)
    for index in range(6):
        os_.collect(
            "user",
            {"name": f"Subject {index}", "pwd": f"pwd-{index}",
             "year_of_birthdate": 1980 + index},
            subject_id=f"s{index:02d}", method="web_form",
        )
    return os_


def make_daemon(system):
    return ExpiryDaemon(
        dbfs=system.dbfs,
        clock=system.clock,
        builtins=system.ps.builtins,
        trail=system.evidence,
        telemetry=system.telemetry,
    )


def crash_remount(system, carry_feed=True):
    """True-crash recovery of the store, publishing into its old feed
    (or, with ``carry_feed=False``, into a feed of its own)."""
    old = system.dbfs
    common = dict(
        operator_key=system.operator_key,
        cache_config=system.cache_config,
        telemetry=system.telemetry,
        feed=old.feed if carry_feed else None,
    )
    if isinstance(old, ShardedDBFS):
        return ShardedDBFS.remount_from_devices(
            [shard.device for shard in old.shards],
            [shard.inodes for shard in old.shards],
            **common,
        )
    return DatabaseFS.remount_from_device(old.device, old.inodes, **common)


def repoint(system, recovered):
    """Re-point the stack at the recovered store, as a real recovery
    would (the daemon's erasure waves go through builtins.delete)."""
    system.dbfs = recovered
    system.ps.builtins.dbfs = recovered
    system.rights.dbfs = recovered


def collect_one(system, subject_id):
    return system.collect(
        "user",
        {"name": "Post Crash", "pwd": "pc-pwd", "year_of_birthdate": 1999},
        subject_id=subject_id, method="web_form",
    )


def subscriptions(feed, daemon):
    return sum(1 for fn in feed.subscribers if fn == daemon._on_change)


class TestObserverRetention:
    def test_fleet_retains_registrations(self, system):
        """One subscription on the store's feed hears every shard."""
        daemon = make_daemon(system)
        assert subscriptions(system.dbfs.feed, daemon) == 1
        for shard in system.dbfs.shards:
            assert shard.feed is system.dbfs.feed
        before = daemon.pending
        for index in range(6):
            collect_one(system, f"fresh-{index}")
        assert daemon.pending == before + 6

    def test_remount_carries_observers_to_new_shards(self, system):
        """Without a rebind, every recovered shard still publishes into
        the daemon's feed: a store on any shard reaches the wheel."""
        daemon = make_daemon(system)
        recovered = crash_remount(system)
        assert recovered.feed is system.dbfs.feed
        assert subscriptions(recovered.feed, daemon) == 1
        for index, shard in enumerate(recovered.shards):
            assert shard.feed is recovered.feed
            assert shard.feed_index == index
        repoint(system, recovered)
        before = daemon.pending
        for index in range(6):
            collect_one(system, f"fresh-{index}")
        assert daemon.pending == before + 6

    def test_crash_cycles_never_duplicate_the_subscription(self, system):
        """Three recovery sequences (old feed in, then rebind) leave one
        subscription, and one collect reaches the wheel exactly once."""
        daemon = make_daemon(system)
        for _ in range(3):
            recovered = crash_remount(system)
            daemon.rebind(recovered, builtins=system.ps.builtins)
            repoint(system, recovered)
            assert subscriptions(recovered.feed, daemon) == 1
        scheduled = []
        schedule = daemon.wheel.schedule

        def counting_schedule(uid, deadline):
            scheduled.append(uid)
            schedule(uid, deadline)

        daemon.wheel.schedule = counting_schedule
        ref = collect_one(system, "post-crash")
        assert scheduled == [ref.uid]

    def test_rebind_moves_subscription_to_a_new_feed(self, system):
        """A store recovered without ``feed=`` has a feed of its own:
        rebind leaves the old one and subscribes to the new one."""
        daemon = make_daemon(system)
        old_feed = system.dbfs.feed
        recovered = crash_remount(system, carry_feed=False)
        assert recovered.feed is not old_feed
        daemon.rebind(recovered)
        assert subscriptions(old_feed, daemon) == 0
        assert subscriptions(recovered.feed, daemon) == 1


class TestRebind:
    def test_rebind_reseeds_wheel_from_recovered_membranes(self, system):
        daemon = make_daemon(system)
        assert daemon.pending == 6
        recovered = crash_remount(system)
        seeded = daemon.rebind(recovered)
        assert seeded == 6
        assert daemon.pending == 6
        assert daemon.dbfs is recovered

    def test_daemon_hears_stores_after_crash_remount(self, system):
        """The regression proper: collect after recovery must feed the
        wheel without a rescan."""
        daemon = make_daemon(system)
        recovered = crash_remount(system)
        daemon.rebind(recovered)
        repoint(system, recovered)
        collect_one(system, "post-crash")
        assert daemon.pending == 7

    def test_expiry_fires_after_crash_remount(self, system):
        daemon = make_daemon(system)
        recovered = crash_remount(system)
        system.ps.builtins.dbfs = recovered
        daemon.rebind(recovered, builtins=system.ps.builtins)
        system.advance_time(YEAR)
        daemon.run_until_drained()
        assert daemon.erased_total == 6
        ded = AccessCredential(holder="ttl-remount-ded", is_ded=True)
        for shard in recovered.shards:
            for uid in shard.all_uids():
                assert shard.get_membrane(uid, ded).erased

    def test_rebind_clears_stale_backlog(self, system):
        daemon = make_daemon(system)
        daemon._backlog.append(("stale-uid", 0.0))
        recovered = crash_remount(system)
        daemon.rebind(recovered)
        assert not daemon._backlog


class TestObserverRetentionUnsharded(TestObserverRetention):
    @pytest.fixture
    def shards(self):
        return 1


class TestRebindUnsharded(TestRebind):
    @pytest.fixture
    def shards(self):
        return 1
