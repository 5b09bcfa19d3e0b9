"""Unit tests for the set-associative cache model."""

import pytest

from repro.config import CacheConfig
from repro.memory import Cache


def small_cache(ways=2, sets=4, latency=2) -> Cache:
    cfg = CacheConfig(size_bytes=ways * sets * 64, ways=ways, latency=latency)
    return Cache(cfg, name="test")


def test_num_sets_must_be_power_of_two():
    cfg = CacheConfig(size_bytes=3 * 64, ways=1, latency=1)
    with pytest.raises(ValueError):
        Cache(cfg)


def test_miss_then_hit():
    c = small_cache()
    assert not c.lookup(0x100)
    c.fill(0x100)
    assert c.lookup(0x100)
    assert c.accesses == 2 and c.hits == 1 and c.misses == 1


def test_probe_does_not_touch_stats_or_lru():
    c = small_cache(ways=2, sets=1)
    c.fill(0)   # set 0
    c.fill(4)   # wait: with 1 set, every line maps to set 0
    # lines 0 and 4 both map to set 0 (mask == 0)
    assert c.probe(0) and c.probe(4)
    assert c.accesses == 0
    # probe must not refresh LRU: line 0 is still the LRU victim
    evicted = c.fill(8)
    assert evicted is not None and evicted[0] == 0


def test_lru_eviction_within_set():
    c = small_cache(ways=2, sets=4)
    # Three lines mapping to set 0: line addresses 0, 4, 8.
    c.fill(0)
    c.fill(4)
    c.lookup(0)          # make line 0 most recent
    evicted = c.fill(8)
    assert evicted == (4, False)
    assert c.probe(0) and c.probe(8) and not c.probe(4)


def test_dirty_eviction_reported():
    c = small_cache(ways=1, sets=1)
    c.fill(0, dirty=True)
    evicted = c.fill(1)
    assert evicted == (0, True)
    assert c.dirty_evictions == 1


def test_fill_existing_line_is_idempotent():
    c = small_cache()
    c.fill(0x10)
    assert c.fill(0x10) is None
    assert c.evictions == 0


def test_fill_existing_line_can_set_dirty():
    c = small_cache()
    c.fill(0x10)
    c.fill(0x10, dirty=True)
    evicted_line = None
    # force eviction of 0x10's set: with 2 ways need 2 more conflicting lines
    conflict1 = 0x10 + c.num_sets
    conflict2 = 0x10 + 2 * c.num_sets
    c.fill(conflict1)
    evicted = c.fill(conflict2)
    assert evicted == (0x10, True)


def test_mark_dirty():
    c = small_cache()
    assert not c.mark_dirty(0x99)
    c.fill(0x99)
    assert c.mark_dirty(0x99)


def test_invalidate():
    c = small_cache()
    c.fill(0x42)
    assert c.invalidate(0x42)
    assert not c.probe(0x42)
    assert not c.invalidate(0x42)


def test_prefetched_hit_feedback_flag():
    c = small_cache()
    c.fill(0x7, prefetched=True)
    assert c.prefetch_fills == 1
    assert c.lookup(0x7)
    assert c.last_hit_prefetched
    assert c.useful_prefetches == 1
    # Second hit: bit was consumed.
    assert c.lookup(0x7)
    assert not c.last_hit_prefetched
    assert c.useful_prefetches == 1


def test_reset_stats():
    c = small_cache()
    c.lookup(1)
    c.fill(1, prefetched=True)
    c.reset_stats()
    assert c.accesses == 0 and c.prefetch_fills == 0
    assert c.probe(1)   # contents preserved


def test_distinct_sets_do_not_conflict():
    c = small_cache(ways=1, sets=4)
    for line in range(4):
        c.fill(line)
    for line in range(4):
        assert c.probe(line)
