"""Failover: crash the leader mid-workload, promote the most-caught-up
*adequate* follower, demote the old leader through the true-crash
remount path — zero PD residue and zero placement violations after."""

import pytest

from cluster_testkit import (cluster_system, collect_users,  # noqa: F401
                             make_cluster_system,
                             sharded_cluster_system)
from repro import errors
from repro.cluster import ReplicatedCluster
from repro.core.active_data import AccessCredential
from repro.core.transfer import US_ADEQUACY_LAPSE
from repro.storage.query import StoreRequest

DED = AccessCredential(holder="failover-test-ded", is_ded=True)


class TestPromotion:
    def test_promote_requires_dead_leader(self, cluster_system):
        cluster = ReplicatedCluster(cluster_system, regions=("eu", "eu"))
        try:
            with pytest.raises(errors.ClusterError):
                cluster.promote()  # no split brain
        finally:
            cluster.close()

    def test_most_caught_up_follower_wins(self, cluster_system):
        cluster = ReplicatedCluster(cluster_system, regions=("eu", "eu", "eu"))
        try:
            laggard = cluster.followers[0]
            ahead = cluster.followers[1]
            collect_users(cluster_system, 4, prefix="pre")
            laggard.link.partition()
            cluster.sync()  # only `ahead` catches up
            assert sum(ahead.applied) > sum(laggard.applied)
            cluster.fail_leader()
            new_leader = cluster.promote()
            assert new_leader is ahead
            assert new_leader.role == "leader"
        finally:
            cluster.close()

    def test_promoted_follower_serves_full_workload(self, cluster_system):
        cluster = ReplicatedCluster(cluster_system, regions=("eu", "eu", "eu"))
        try:
            refs = collect_users(cluster_system, 5, prefix="wk")
            cluster.sync()
            cluster.fail_leader()
            new_leader = cluster.promote()
            store = cluster.leader_store
            # Reads, writes, membranes and erasure all work on the
            # promoted store — and replicate to the surviving follower.
            assert store.all_uids() == sorted(r.uid for r in refs)
            membrane = store.get_membrane(refs[0].uid, DED)
            new_ref = store.store(
                StoreRequest(
                    pd_type="user",
                    record={"name": "Post Failover", "pwd": "pf-pw",
                            "year_of_birthdate": 2000},
                    membrane_json=membrane.to_json(),
                ),
                DED,
            )
            cluster.sync()
            survivor = cluster.followers[0]
            assert new_ref.uid in survivor.store.all_uids()
        finally:
            cluster.close()

    def test_no_live_follower_raises(self, cluster_system):
        cluster = ReplicatedCluster(cluster_system, regions=("eu",))
        try:
            cluster.fail_leader()
            with pytest.raises(errors.ClusterError):
                cluster.promote()
        finally:
            cluster.close()


class TestPlacementAwareFailover:
    def test_more_caught_up_non_adequate_node_loses(self, shared_authority):
        """A us follower with no safeguard is ahead; after the eu->us
        adequacy decision lapses, the less-caught-up eu follower must
        be promoted instead (Chapter V applies to failover)."""
        system = make_cluster_system(shared_authority)
        cluster = ReplicatedCluster(system, regions=("eu", "us", "eu"))
        try:
            us_node = cluster.followers[0]
            eu_node = cluster.followers[1]
            assert us_node.region == "us"
            collect_users(system, 3, prefix="geo")
            eu_node.link.partition()
            cluster.sync()  # us node is now strictly ahead
            assert sum(us_node.applied) > sum(eu_node.applied)
            system.advance_time(US_ADEQUACY_LAPSE + 1.0)
            eu_node.link.heal()
            cluster.fail_leader()
            new_leader = cluster.promote()
            assert new_leader is eu_node
        finally:
            cluster.close()

    def test_no_adequate_follower_raises_placement_error(
        self, shared_authority
    ):
        system = make_cluster_system(shared_authority)
        cluster = ReplicatedCluster(system, regions=("eu", "us"))
        try:
            collect_users(system, 2, prefix="orphan")
            cluster.sync()
            system.advance_time(US_ADEQUACY_LAPSE + 1.0)
            cluster.fail_leader()
            with pytest.raises(errors.PlacementViolationError):
                cluster.promote()
        finally:
            cluster.close()

    def test_safeguarded_node_stays_eligible(self, shared_authority):
        system = make_cluster_system(shared_authority)
        cluster = ReplicatedCluster(system, regions=("eu", "us:scc"))
        try:
            collect_users(system, 2, prefix="scc")
            cluster.sync()
            system.advance_time(US_ADEQUACY_LAPSE + 1.0)
            cluster.fail_leader()
            new_leader = cluster.promote()
            assert new_leader.region == "us"
            assert cluster.placement.audit()["violations"] == 0
        finally:
            cluster.close()


class TestDemotion:
    def test_demoted_leader_rejoins_and_catches_up(self, cluster_system):
        cluster = ReplicatedCluster(cluster_system, regions=("eu", "eu", "eu"))
        try:
            collect_users(cluster_system, 4, prefix="dj")
            cluster.sync()
            cluster.fail_leader()
            cluster.promote()
            demoted = cluster.demote()
            assert demoted.role == "follower"
            assert demoted.alive
            more_ref = cluster.leader_store.store(
                StoreRequest(
                    pd_type="user",
                    record={"name": "After Rejoin", "pwd": "ar-pw",
                            "year_of_birthdate": 1991},
                    membrane_json=cluster.leader_store.get_membrane(
                        cluster.leader_store.all_uids()[0], DED
                    ).to_json(),
                ),
                DED,
            )
            cluster.sync()
            assert more_ref.uid in demoted.store.all_uids()
        finally:
            cluster.close()

    def test_zero_residue_on_demoted_leader(self, cluster_system):
        """The acceptance trial: erase through the new leader while
        the old one is down, then rejoin it — the demoted node must
        hold zero trace of the erased PD."""
        cluster = ReplicatedCluster(cluster_system, regions=("eu", "eu"))
        try:
            collect_users(cluster_system, 3, prefix="rz")
            cluster.sync()
            cluster.fail_leader()
            cluster.promote()
            # Erase on the new leader while the old leader is dead.
            new_rights_store = cluster.leader_store
            victim_uid = [
                u for u in new_rights_store.all_uids()
            ][1]
            membrane = new_rights_store.get_membrane(victim_uid, DED)
            from repro.storage.query import DeleteRequest
            new_rights_store.delete(
                DeleteRequest(uid=victim_uid, mode="erase"), DED
            )
            demoted = cluster.demote()
            cluster.sync()
            # The divergent copy is reconciled away and scrubbed.
            demoted_membrane = demoted.store.get_membrane(victim_uid, DED)
            assert demoted_membrane.erased
            report = cluster.residue_report(
                [b"Cluster User 1", b"cluster-pw-1"]
            )
            for node_id, counts in report.items():
                assert counts["device_blocks"] == 0, (node_id, counts)
                assert counts["journal_records"] == 0, (node_id, counts)
                assert counts["stream_records"] == 0, (node_id, counts)
            assert cluster.placement.audit()["violations"] == 0
        finally:
            cluster.close()

    def test_divergent_unshipped_write_is_rolled_back(self, cluster_system):
        """A write committed on the old leader but never shipped is
        anti-entropied away on rejoin: it was never acknowledged
        cluster-wide."""
        cluster = ReplicatedCluster(cluster_system, regions=("eu", "eu"))
        try:
            refs = collect_users(cluster_system, 2, prefix="div")
            cluster.sync()
            # This store never ships: the leader dies before a pump.
            membrane = cluster_system.dbfs.get_membrane(refs[0].uid, DED)
            orphan = cluster_system.dbfs.store(
                StoreRequest(
                    pd_type="user",
                    record={"name": "Never Shipped", "pwd": "ns-pw",
                            "year_of_birthdate": 1900},
                    membrane_json=membrane.to_json(),
                ),
                DED,
            )
            cluster.fail_leader()
            cluster.promote()
            assert orphan.uid not in cluster.leader_store.all_uids()
            demoted = cluster.demote()
            membrane = demoted.store.get_membrane(orphan.uid, DED)
            assert membrane.erased  # scrub-erased by reconciliation
            assert demoted.store.all_uids() != []
        finally:
            cluster.close()

    def test_sharded_failover_roundtrip(self, sharded_cluster_system):
        cluster = ReplicatedCluster(
            sharded_cluster_system, regions=("eu", "eu")
        )
        try:
            refs = collect_users(sharded_cluster_system, 9, prefix="sfo")
            cluster.sync()
            cluster.fail_leader()
            new_leader = cluster.promote()
            assert new_leader.store.all_uids() == sorted(
                r.uid for r in refs
            )
            demoted = cluster.demote()
            cluster.sync()
            assert demoted.store.all_uids() == sorted(r.uid for r in refs)
            assert cluster.lag()[demoted.node_id] == 0
        finally:
            cluster.close()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_capture_tap_follows_the_leader_feed(self, shared_authority, shards):
        """The cluster holds exactly one tap, on the current leader's
        committed-change feed: failover moves it, and the demoted
        leader — recovered into its old feed — carries none."""
        system = make_cluster_system(shared_authority, shards=shards)
        cluster = ReplicatedCluster(system, regions=("eu", "eu"))
        try:
            old_feed = cluster.leader_store.feed
            assert old_feed.subscribers.count(cluster._capture) == 1
            collect_users(system, 3, prefix="tap")
            cluster.sync()
            cluster.fail_leader()
            assert cluster._capture not in old_feed.subscribers
            cluster.promote()
            demoted = cluster.demote()
            assert demoted.store.feed is old_feed
            assert cluster._capture not in demoted.store.feed.subscribers
            new_feed = cluster.leader_store.feed
            assert new_feed.subscribers.count(cluster._capture) == 1
        finally:
            cluster.close()
