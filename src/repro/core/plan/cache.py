"""The keyed stage cache.

An LRU mapping stage cache keys to stage outputs.  Invalidation is
epoch-based and *structural*: every key embeds the epochs its value
depends on (dataset epoch, canvas stroke epoch, window key), so a
bumped epoch makes stale entries unreachable immediately — they then
age out of the LRU.  :meth:`StageCache.clear` is the only eager drop,
and correctness never depends on calling it.

Stage outputs are numpy arrays marked read-only by the executor before
insertion, so serving the same array to multiple queries is safe.

One class serves both tenancies.  The cache is striped over ``shards``
independent LRU tables, each behind its own micro-mutex and selected by
key hash: concurrent sessions' stage lookups stripe across shards
instead of contending on one lock, and *never* touch the service lock
(the critical section is a handful of dict operations, bounded and
allocation-light).  A given key always maps to the same shard, so
hit/miss/eviction semantics per key match a single table; with the
default ``shards=1`` the cache *is* a single LRU table.  The single-user
engine keeps the default; the multi-tenant service passes ``shards=8``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

__all__ = ["StageCache", "CacheStats"]

_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class StageCache:
    """Thread-safe LRU cache of stage outputs keyed on epoch-embedding
    tuples, striped over ``shards`` locked LRU tables.

    Parameters
    ----------
    capacity:
        Total retained stage outputs across all shards (each shard gets
        ``ceil(capacity / shards)``, so the aggregate capacity is at
        least ``capacity``); least recently used entries of a shard are
        evicted beyond its share.
    shards:
        Number of independent shards.  More shards, less lock
        contention; 8 covers the 64-session target comfortably because
        the critical section is a few dict operations.

    Shard selection is ``hash(key) % shards`` — stage keys are hashable
    planner tuples — so one key always lands on one shard.  Per-shard
    :class:`CacheStats` are merged on read; counters are mutated under
    the owning shard's lock, so totals are exact.
    """

    def __init__(self, capacity: int = 128, *, shards: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.capacity = int(capacity)
        self.shard_capacity = -(-int(capacity) // int(shards))  # ceil division
        self._entries: tuple[OrderedDict[tuple, Any], ...] = tuple(
            OrderedDict() for _ in range(shards)
        )
        self._stats = tuple(CacheStats() for _ in range(shards))
        self._locks = tuple(threading.Lock() for _ in range(shards))

    @property
    def n_shards(self) -> int:
        """Number of stripe shards."""
        return len(self._entries)

    def _shard_of(self, key: tuple) -> int:
        return hash(key) % len(self._entries)

    def __len__(self) -> int:
        return sum(len(e) for e in self._entries)

    def __contains__(self, key: tuple) -> bool:
        i = self._shard_of(key)
        with self._locks[i]:
            return key in self._entries[i]

    def get(self, key: tuple) -> Any:
        """Look up a stage output; counts a hit/miss and refreshes
        recency.  Returns ``None`` on a miss — callers should use
        :meth:`lookup` when ``None`` is a legal cached value."""
        value, found = self.lookup(key)
        return value if found else None

    def lookup(self, key: tuple) -> tuple[Any, bool]:
        """(value, found) lookup under the owning shard's lock only;
        distinguishes a cached ``None`` from a miss."""
        i = self._shard_of(key)
        with self._locks[i]:
            entries, stats = self._entries[i], self._stats[i]
            value = entries.get(key, _MISSING)
            if value is _MISSING:
                stats.misses += 1
                return None, False
            entries.move_to_end(key)
            stats.hits += 1
            return value, True

    def put(self, key: tuple, value: Any) -> None:
        """Insert (or refresh) a stage output under the owning shard's
        lock, evicting that shard's LRU overflow."""
        i = self._shard_of(key)
        with self._locks[i]:
            entries = self._entries[i]
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
            while len(entries) > self.shard_capacity:
                entries.popitem(last=False)
                self._stats[i].evictions += 1

    def clear(self) -> None:
        """Drop everything in every shard (counts as invalidations)."""
        for i, entries in enumerate(self._entries):
            with self._locks[i]:
                self._stats[i].invalidations += len(entries)
                entries.clear()

    def keys(self) -> list[tuple]:
        """All current keys, shard-major then LRU-first within a shard
        (introspection/tests)."""
        out: list[tuple] = []
        for i, entries in enumerate(self._entries):
            with self._locks[i]:
                out.extend(entries)
        return out

    @property
    def stats(self) -> CacheStats:
        """Exact merged counters across shards (a fresh value object —
        mutating it does not write back)."""
        merged = CacheStats()
        for i, s in enumerate(self._stats):
            with self._locks[i]:
                merged.hits += s.hits
                merged.misses += s.misses
                merged.evictions += s.evictions
                merged.invalidations += s.invalidations
        return merged
