"""StageCache striping: ``shards=1`` against ``shards=8``, and thread safety.

One class serves the single user (``shards=1``) and the multi-tenant
service (``shards=8``).  These tests pin that striping is invisible:
identical hit/miss behavior per key (a key always lands on one shard,
so per-key semantics cannot differ), exact counter conservation under
concurrency, and the epoch-in-key staleness story surviving the stripe
split (old-epoch entries are unreachable by new-epoch keys and age out
of every shard's LRU).
"""

from __future__ import annotations

import threading

import pytest

from repro.core.plan.cache import StageCache


def _key(stage: str, ds_epoch: int, extra: int = 0) -> tuple:
    """Planner-shaped keys: ``(stage, ("ds", epoch), ...)``."""
    return (stage, ("ds", ds_epoch), ("cv", extra))


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            StageCache(0)
        with pytest.raises(ValueError):
            StageCache(8, shards=0)

    def test_shard_count_and_capacity(self):
        assert StageCache(100).n_shards == 1
        cache = StageCache(100, shards=8)
        assert cache.n_shards == 8
        assert cache.capacity == 100
        # per-shard capacity is ceil(100/8): aggregate >= requested
        assert cache.shard_capacity == 13
        assert cache.shard_capacity * cache.n_shards >= 100

    def test_single_shard_degenerates_to_plain_cache_semantics(self):
        """One shard is one exact LRU table of the full capacity."""
        single = StageCache(16, shards=1)
        for i in range(20):  # overflows capacity: exact LRU eviction
            single.put(_key("s", 0, i), i)
        assert single.keys() == [_key("s", 0, i) for i in range(4, 20)]
        assert single.stats.evictions == 4


class TestParityWithSingleCache:
    """Same operation sequence, same per-key outcomes (no eviction)."""

    def _drive(self, cache) -> list:
        observed = []
        for i in range(30):
            key = _key("temporal_mask", 3, i % 10)
            value, found = cache.lookup(key)
            if not found:
                cache.put(key, i % 10)
                value = i % 10
            observed.append((key, value))
        return observed

    def test_hit_miss_parity(self):
        single, sharded = StageCache(64), StageCache(64, shards=8)
        assert self._drive(single) == self._drive(sharded)
        assert single.stats.hits == sharded.stats.hits == 20
        assert single.stats.misses == sharded.stats.misses == 10
        assert len(single) == len(sharded) == 10
        assert single.stats.hit_rate == sharded.stats.hit_rate
        for key, value in self._drive(single):
            assert key in sharded
            assert sharded.get(key) == value

    def test_taint_parity_invalidate_by_epoch(self):
        """An epoch bump invalidates by key: both stripings keep the same
        entries, miss every new-epoch key, and hit every old one."""
        single, sharded = StageCache(64), StageCache(64, shards=8)
        for cache in (single, sharded):
            for e in (1, 1, 2, 2, 2):
                for i in range(3):
                    cache.put(_key("combine", e, i), (e, i))
        assert sorted(single.keys()) == sorted(sharded.keys())
        for cache in (single, sharded):
            assert not any(cache.lookup(_key("combine", 3, i))[1] for i in range(3))
            assert all(cache.get(_key("combine", 1, i)) == (1, i) for i in range(3))
        assert single.stats.misses == sharded.stats.misses == 3
        assert single.stats.hits == sharded.stats.hits == 3

    def test_clear_parity(self):
        single, sharded = StageCache(64), StageCache(64, shards=8)
        for cache in (single, sharded):
            for i in range(12):
                cache.put(_key("s", 0, i), i)
            cache.clear()
            assert len(cache) == 0
            assert cache.stats.invalidations == 12


class TestStaleEpochEntries:
    def test_old_epoch_entries_unreachable_after_epoch_bump(self):
        """The rollover story: epoch-tagged keys make pre-swap entries
        invisible to post-swap queries — no flush required — while a
        pinned old-epoch session still hits them."""
        cache = StageCache(64, shards=8)
        old, new = 7, 12
        cache.put(_key("aggregate", old), "old-epoch-output")
        # a new-epoch query computes a *different* key: structural miss
        value, found = cache.lookup(_key("aggregate", new))
        assert not found
        # the pinned old-epoch session still hits its entry
        assert cache.get(_key("aggregate", old)) == "old-epoch-output"
        # once the session moves on, new-epoch traffic ages it out of
        # its shard's LRU (no flush, no eager sweep)
        for i in range(10_000):
            cache.put(_key("aggregate", new, i), i)
            if _key("aggregate", old) not in cache:
                break
        assert _key("aggregate", old) not in cache
        assert len(cache) <= cache.shard_capacity * cache.n_shards


class TestConcurrency:
    def test_counter_conservation_under_concurrent_load(self):
        """8 threads, disjoint key ranges: totals are exact (every
        lookup is one hit or one miss, nothing torn or lost)."""
        cache = StageCache(1024, shards=8)
        n_threads, per_thread = 8, 200
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def work(tid: int):
            try:
                barrier.wait()
                for i in range(per_thread):
                    key = _key(f"stage-{tid}", tid, i % 50)
                    value, found = cache.lookup(key)
                    if found:
                        assert value == (tid, i % 50)
                    else:
                        cache.put(key, (tid, i % 50))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = cache.stats
        assert stats.hits + stats.misses == n_threads * per_thread
        # disjoint ranges, ample capacity: exactly 50 misses per thread
        assert stats.misses == n_threads * 50
        assert stats.evictions == 0
        assert len(cache) == n_threads * 50

    def test_concurrent_same_key_last_put_wins_consistently(self):
        """Contending on one key never corrupts: every get returns some
        thread's complete value, never a torn mix."""
        cache = StageCache(16, shards=4)
        key = _key("hot", 1)
        barrier = threading.Barrier(8)
        errors: list[BaseException] = []

        def work(tid: int):
            try:
                barrier.wait()
                for i in range(200):
                    cache.put(key, (tid, i))
                    got = cache.get(key)
                    assert isinstance(got, tuple) and len(got) == 2
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
