"""The committed-change feed: DBFS's single post-commit event channel.

Every PD state change DBFS makes (§ 2: DBFS is the one place PD
changes state) is published here *after* its journal transaction
commits, as ``fn(shard, op, payload)``:

* ``shard`` — the publishing shard's index (0 for a standalone DBFS);
* ``op`` — ``store``, ``update``, ``delete``, ``membrane_update``,
  ``create_type``, ``evolve_type`` or ``create_index``;
* ``payload`` — enough to replay the op verbatim on a follower.
  ``store`` and ``membrane_update`` also carry ``deadline``: the
  absolute TTL instant, or ``None`` when the PD has no TTL any more
  (no TTL set, or the membrane was just erased).  ``store`` payloads
  carry the plaintext record in flight only: a subscriber that keeps
  them (the cluster's shipping log) redacts them once the uid's
  ``delete`` arrives.

A sharded store builds one feed and hands it to every shard, so one
subscription hears the whole fleet.  The feed object outlives its
store: an in-place remount keeps it, and a true-crash remount given
``feed=`` publishes into it, so subscriptions survive a crash without
being re-registered.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Tuple

Subscriber = Callable[[int, str, Dict[str, object]], None]


class ChangeFeed:
    """Post-commit publish/subscribe, safe to publish from any thread.

    The subscriber tuple is replaced, never mutated, so a publish in
    flight iterates a consistent snapshot without taking the lock;
    the lock only serialises concurrent (un)subscribes.
    """

    def __init__(self) -> None:
        self.subscribers: Tuple[Subscriber, ...] = ()
        self._lock = threading.Lock()

    def subscribe(self, fn: Subscriber) -> None:
        with self._lock:
            self.subscribers = self.subscribers + (fn,)

    def unsubscribe(self, fn: Subscriber) -> None:
        """Drop one registration of ``fn`` (no-op when absent)."""
        with self._lock:
            subscribers = list(self.subscribers)
            if fn in subscribers:
                subscribers.remove(fn)
                self.subscribers = tuple(subscribers)

    def publish(self, shard: int, op: str, payload: Dict[str, object]) -> None:
        for fn in self.subscribers:
            fn(shard, op, payload)
