"""Fast-path caching primitives shared across the storage and DED stack.

Shastri et al. ("Understanding and Benchmarking the Impact of GDPR on
Database Systems") measured 2-5x GDPR-compliance overheads exactly on
the paths this module accelerates: every query re-reading and
re-decoding records, every invocation re-parsing and re-evaluating
membranes, every write issuing its own journal commit.  rgpdOS closes
that gap with caching and batching rather than by weakening
enforcement, which makes *invalidation* the load-bearing part of the
design:

* a scrubbed or freed block must never be served from the page cache
  (the RTBF secure-erase guarantee extends to the cache);
* a withdrawn consent must take effect on the very next invocation
  (decision-cache entries are keyed on the membrane's monotonically
  bumped version, so no cached decision can outlive a revocation);
* an erased uid must never resurface through the record cache or a
  field index.

Three pieces live here:

* :class:`CacheStats` — uniform hit/miss/eviction accounting;
* :class:`LRUCache` — the bounded least-recently-used map every layer
  builds on (capacity 0 disables it, turning every lookup into a miss);
* :class:`CacheConfig` — the knobs, threaded from :class:`repro.RgpdOS`
  down to the block device, DBFS and the DED.  ``CacheConfig.disabled()``
  turns every cache off, which the FASTPATH benchmark uses as its
  baseline.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional

#: Sentinel distinguishing "not cached" from a cached ``None`` value
#: (the decision cache legitimately caches denials as ``None``).
MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """A bounded least-recently-used map with observable stats.

    ``capacity <= 0`` disables the cache entirely: ``get`` always
    misses and ``put`` is a no-op, so callers need no branching to
    support the caches-off configuration.

    Every method takes an internal lock: ``move_to_end`` + eviction is
    a multi-step mutation of one ``OrderedDict``, and the request
    engine drives these caches from many worker threads at once — an
    unlocked eviction racing a lookup corrupts the recency list or
    raises mid-iteration.
    """

    def __init__(self, capacity: int, name: str = "lru") -> None:
        self.capacity = capacity
        self.name = name
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.RLock()

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> object:
        """Return the cached value or :data:`MISSING`."""
        with self._lock:
            if key in self._entries:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.stats.misses += 1
            return MISSING

    def peek(self, key: Hashable) -> object:
        """Like :meth:`get` but without touching recency or stats."""
        with self._lock:
            return self._entries.get(key, MISSING)

    def put(self, key: Hashable, value: object) -> None:
        if not self.enabled:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; True if it was present."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.stats.invalidations += 1
                return True
            return False

    def clear(self) -> int:
        """Drop every entry (remount/reset); returns how many."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += dropped
            return dropped

    def as_dict(self) -> Dict[str, object]:
        report = {"name": self.name, "capacity": self.capacity, "size": len(self)}
        report.update(self.stats.as_dict())
        return report

    def __repr__(self) -> str:
        return (
            f"LRUCache({self.name}, {len(self)}/{self.capacity}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )


@dataclass(frozen=True)
class CacheConfig:
    """Fast-path knobs, threaded from :class:`repro.RgpdOS` downward.

    ============================  ========================================
    ``page_cache_blocks``         block-device LRU page cache capacity
                                  (blocks); 0 disables
    ``record_cache_records``      DBFS decoded-record cache capacity
                                  (records); 0 disables
    ``listing_cache``             cache the sorted per-table uid listing
    ``membrane_cache_entries``    DBFS decoded-membrane cache capacity
                                  (membranes); writes through on
                                  ``put_membrane`` so eviction only ever
                                  costs a re-read, never staleness;
                                  0 disables
    ``decision_cache_entries``    DED membrane-decision cache capacity
                                  ((uid, purpose, version) entries);
                                  0 disables
    ============================  ========================================

    Every cache is write-through and invalidated on the mutation paths
    documented in ``docs/API.md`` ("Performance & caching"); disabling
    them changes performance only, never results.
    """

    page_cache_blocks: int = 1024
    record_cache_records: int = 4096
    listing_cache: bool = True
    membrane_cache_entries: int = 8192
    decision_cache_entries: int = 8192

    @classmethod
    def disabled(cls) -> "CacheConfig":
        """The caches-off configuration (FASTPATH baseline): every
        cache is off, so each read goes to the device and decodes."""
        return cls(
            page_cache_blocks=0,
            record_cache_records=0,
            listing_cache=False,
            membrane_cache_entries=0,
            decision_cache_entries=0,
        )


#: The default configuration used when callers pass no explicit config.
DEFAULT_CACHE_CONFIG = CacheConfig()
