"""The committed-change feed: DBFS's one post-commit event channel.

Contract pinned here:

* the feed itself — subscribers run in subscription order with
  ``(shard, op, payload)``, ``unsubscribe`` drops one registration,
  and concurrent subscribes lose none;
* **post-commit** — every event of a solo op is published after the
  op's journal transaction commits, and nothing commits after it;
* **erase is one event** — an erase in either mode publishes a single
  ``delete``, never the nested ``membrane_update`` that marks the
  membrane erased (a follower replaying that first would show an
  erased membrane over a live record), and the ``delete`` alone
  cancels the expiry daemon's timer.
"""

import sys
import threading

import pytest

from conftest import LISTING1_DECLARATIONS
from repro import RgpdOS
from repro.core.active_data import AccessCredential
from repro.core.crypto import Authority
from repro.core.datatypes import FieldDef, PDType
from repro.core.membrane import membrane_for_type
from repro.obs.monitors import ExpiryDaemon
from repro.storage.dbfs import DatabaseFS
from repro.storage.feed import ChangeFeed
from repro.storage.query import DeleteRequest, StoreRequest, UpdateRequest

DED = AccessCredential(holder="feed-test-ded", is_ded=True)


def make_user_type():
    return PDType(
        name="user",
        fields=(
            FieldDef("name", "string"),
            FieldDef("ssn", "string", sensitive=True),
            FieldDef("year", "int"),
        ),
        default_consent={},
        collection={"web_form": "form.html"},
        ttl_seconds=1000.0,
    )


@pytest.fixture
def dbfs():
    authority = Authority(bits=512, seed=11)
    fs = DatabaseFS(operator_key=authority.issue_operator_key("feed-op"))
    fs.create_type(make_user_type(), DED)
    return fs


def store_user(dbfs, subject):
    membrane = membrane_for_type(make_user_type(), subject, created_at=0.0)
    return dbfs.store(
        StoreRequest(
            pd_type="user",
            record={"name": "Ada", "ssn": "1850212", "year": 1815},
            membrane_json=membrane.to_json(),
        ),
        DED,
    )


class TestChangeFeed:
    def test_publish_reaches_subscribers_in_order(self):
        feed = ChangeFeed()
        seen = []
        feed.subscribe(lambda *event: seen.append(("a",) + event))
        feed.subscribe(lambda *event: seen.append(("b",) + event))
        feed.publish(2, "store", {"uid": "u1"})
        assert seen == [
            ("a", 2, "store", {"uid": "u1"}),
            ("b", 2, "store", {"uid": "u1"}),
        ]

    def test_unsubscribe_drops_one_registration(self):
        feed = ChangeFeed()
        seen = []

        def fn(shard, op, payload):
            seen.append(op)

        feed.subscribe(fn)
        feed.subscribe(fn)
        feed.unsubscribe(fn)
        feed.publish(0, "delete", {})
        assert seen == ["delete"]
        feed.unsubscribe(fn)
        feed.unsubscribe(fn)  # absent: no-op
        feed.publish(0, "delete", {})
        assert seen == ["delete"]

    def test_concurrent_subscribes_lose_none(self):
        """Threads (more than cores) subscribing while another publishes:
        a lost read-modify-write would drop a registration."""
        feed = ChangeFeed()
        workers, per_worker = 8, 500
        stop = threading.Event()
        start = threading.Barrier(workers)

        def publisher():
            while not stop.is_set():
                feed.publish(0, "update", {})
                stop.wait(0.001)

        def subscriber():
            start.wait(timeout=30)
            for _ in range(per_worker):
                feed.subscribe(lambda shard, op, payload: None)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pub = threading.Thread(target=publisher)
            pub.start()
            threads = [threading.Thread(target=subscriber) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            stop.set()
            pub.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not pub.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        assert len(feed.subscribers) == workers * per_worker


class TestPostCommit:
    def test_every_event_follows_its_commit(self, dbfs):
        journal = dbfs.journal
        events = []
        dbfs.feed.subscribe(
            lambda shard, op, payload: events.append(
                (shard, op, journal.stats.commits)
            )
        )

        def check(op, run):
            before = journal.stats.commits
            result = run()
            # A commit preceded the event, and none followed it.
            assert journal.stats.commits > before
            assert events[-1] == (0, op, journal.stats.commits)
            return result

        ref = check("store", lambda: store_user(dbfs, "alice"))
        check("update", lambda: dbfs.update(
            UpdateRequest(ref.uid, {"year": 1816}), DED))
        membrane = dbfs.get_membrane(ref.uid, DED).copy()
        membrane.revoke("stats", at=1.0)
        check("membrane_update", lambda: dbfs.put_membrane(
            ref.uid, membrane, DED))
        check("create_index", lambda: dbfs.create_index("user", "year", DED))
        check("delete", lambda: dbfs.delete(
            DeleteRequest(ref.uid, mode="erase"), DED))
        assert [op for _, op, _ in events] == [
            "store", "update", "membrane_update", "create_index", "delete",
        ]

    def test_store_and_membrane_update_carry_the_deadline(self, dbfs):
        payloads = []
        dbfs.feed.subscribe(lambda shard, op, payload: payloads.append(payload))
        ref = store_user(dbfs, "alice")
        membrane = dbfs.get_membrane(ref.uid, DED).copy()
        assert payloads[-1]["deadline"] == membrane.expiry_deadline()
        membrane.mark_erased(at=1.0)
        dbfs.put_membrane(ref.uid, membrane, DED)
        assert payloads[-1]["deadline"] is None


@pytest.fixture
def system(shared_authority):
    os_ = RgpdOS(
        operator_name="feed-test",
        authority=shared_authority,
        with_machine=False,
        pd_device_blocks=512,
    )
    os_.install(LISTING1_DECLARATIONS)
    return os_


class TestEraseIsOneEvent:
    @pytest.mark.parametrize("mode", ["erase", "escrow"])
    def test_erase_publishes_one_delete_and_cancels_timer(self, system, mode):
        ref = system.collect(
            "user",
            {"name": "Erin Feed", "pwd": "erin-pwd", "year_of_birthdate": 1990},
            subject_id="erin", method="web_form",
        )
        daemon = ExpiryDaemon(
            dbfs=system.dbfs,
            clock=system.clock,
            builtins=system.ps.builtins,
            trail=system.evidence,
            telemetry=system.telemetry,
        )
        assert daemon.pending == 1
        events = []
        system.dbfs.feed.subscribe(
            lambda shard, op, payload: events.append((op, payload["uid"]))
        )
        system.dbfs.delete(DeleteRequest(ref.uid, mode=mode), DED)
        assert events == [("delete", ref.uid)]
        assert daemon.pending == 0
        assert system.dbfs.get_membrane(ref.uid, DED).erased
