"""Unit tests for the Mask Cache and the Critical Uop Cache."""

import pytest

from repro.cdf import CriticalUopCache, MaskCache


# ----------------------------------------------------------------- MaskCache
def test_mask_cache_miss_then_accumulate():
    mc = MaskCache(entries=16, ways=4)
    assert mc.lookup(0x40) is None
    mc.accumulate(0x40, 0b0101)
    assert mc.lookup(0x40) == 0b0101


def test_mask_cache_accumulates_or():
    mc = MaskCache(entries=16, ways=4)
    mc.accumulate(0x40, 0b0101)
    merged = mc.accumulate(0x40, 0b0011)
    assert merged == 0b0111
    assert mc.lookup(0x40) == 0b0111


def test_mask_cache_reset_clears_everything():
    mc = MaskCache(entries=16, ways=4)
    mc.accumulate(0x40, 1)
    mc.accumulate(0x80, 2)
    mc.reset()
    assert mc.lookup(0x40) is None
    assert mc.lookup(0x80) is None
    assert mc.resets == 1


def test_mask_cache_remove():
    mc = MaskCache(entries=16, ways=4)
    mc.accumulate(0x40, 1)
    assert mc.remove(0x40)
    assert mc.lookup(0x40) is None
    assert not mc.remove(0x40)


def test_mask_cache_eviction_within_set():
    mc = MaskCache(entries=2, ways=2)   # one set
    mc.accumulate(0, 1)
    mc.accumulate(1, 2)
    mc.lookup(0)                        # refresh block 0
    mc.accumulate(2, 4)                 # evicts block 1
    assert mc.lookup(1) is None
    assert mc.lookup(0) == 1
    assert mc.evictions == 1


def test_mask_cache_snapshot():
    mc = MaskCache(entries=16, ways=4)
    mc.accumulate(3, 0b1)
    mc.accumulate(7, 0b10)
    snap = mc.snapshot_masks()
    assert snap == {3: 0b1, 7: 0b10}


def test_mask_cache_geometry_validation():
    with pytest.raises(ValueError):
        MaskCache(entries=5, ways=2)


# ------------------------------------------------------------ CriticalUopCache
def test_uop_cache_fill_and_lookup():
    uc = CriticalUopCache(entries=16, ways=4)
    uc.fill(0x10, mask=0b110, ends_in_branch=True, valid_from=0)
    entry = uc.lookup(0x10, cycle=5)
    assert entry is not None
    assert entry.mask == 0b110
    assert entry.ends_in_branch
    assert entry.n_critical == 2


def test_uop_cache_fill_latency_hides_entry():
    uc = CriticalUopCache(entries=16, ways=4)
    uc.fill(0x10, mask=1, ends_in_branch=False, valid_from=1200)
    assert uc.lookup(0x10, cycle=100) is None
    assert uc.lookup(0x10, cycle=1200) is not None


def test_uop_cache_multi_line_traces():
    uc = CriticalUopCache(entries=16, ways=4, uops_per_trace=8)
    mask = (1 << 20) - 1    # 20 critical uops -> 3 lines
    entry = uc.fill(0x10, mask=mask, ends_in_branch=False, valid_from=0)
    assert entry.lines == 3


def test_uop_cache_refresh_updates_mask():
    uc = CriticalUopCache(entries=16, ways=4)
    uc.fill(0x10, mask=0b1, ends_in_branch=False, valid_from=0)
    uc.fill(0x10, mask=0b111, ends_in_branch=True, valid_from=0)
    entry = uc.lookup(0x10, cycle=0)
    assert entry.mask == 0b111
    assert entry.ends_in_branch


def test_uop_cache_remove():
    uc = CriticalUopCache(entries=16, ways=4)
    uc.fill(0x10, mask=1, ends_in_branch=False, valid_from=0)
    assert uc.remove(0x10)
    assert uc.lookup(0x10, cycle=0) is None
    assert not uc.remove(0x10)


def test_uop_cache_eviction():
    uc = CriticalUopCache(entries=2, ways=2)   # one set
    uc.fill(0, mask=1, ends_in_branch=False, valid_from=0)
    uc.fill(1, mask=1, ends_in_branch=False, valid_from=0)
    uc.lookup(0, 0)
    uc.fill(2, mask=1, ends_in_branch=False, valid_from=0)
    assert uc.lookup(1, 0) is None
    assert uc.lookup(0, 0) is not None
    assert uc.evictions == 1


def test_uop_cache_geometry_validation():
    with pytest.raises(ValueError):
        CriticalUopCache(entries=2, ways=4)
