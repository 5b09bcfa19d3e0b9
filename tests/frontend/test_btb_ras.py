"""Unit tests for the BTB and return address stack."""

import pytest

from repro.frontend import BTB, ReturnAddressStack


def test_btb_miss_then_hit():
    btb = BTB(entries=64, ways=4)
    assert btb.lookup(0x40) is None
    btb.update(0x40, 0x100)
    assert btb.lookup(0x40) == 0x100


def test_btb_update_refreshes_target():
    btb = BTB(entries=64, ways=4)
    btb.update(0x40, 0x100)
    btb.update(0x40, 0x200)
    assert btb.lookup(0x40) == 0x200


def test_btb_lru_eviction():
    btb = BTB(entries=8, ways=2)   # 4 sets
    # Three pcs mapping to set 0: 0, 4, 8.
    btb.update(0, 111)
    btb.update(4, 222)
    btb.lookup(0)         # refresh pc 0
    btb.update(8, 333)    # evicts pc 4
    assert btb.lookup(4) is None
    assert btb.lookup(0) == 111
    assert btb.lookup(8) == 333


def test_btb_validation():
    with pytest.raises(ValueError):
        BTB(entries=10, ways=4)
    with pytest.raises(ValueError):
        BTB(entries=12, ways=4)   # 3 sets, not a power of two


def test_ras_push_pop_lifo():
    ras = ReturnAddressStack(depth=4)
    ras.push(10)
    ras.push(20)
    assert ras.pop() == 20
    assert ras.pop() == 10


def test_ras_underflow_returns_none():
    ras = ReturnAddressStack(depth=2)
    assert ras.pop() is None
    assert ras.underflows == 1


def test_ras_overflow_drops_oldest():
    ras = ReturnAddressStack(depth=2)
    ras.push(1)
    ras.push(2)
    ras.push(3)
    assert ras.pop() == 3
    assert ras.pop() == 2
    assert ras.pop() is None


def test_ras_depth_validation():
    with pytest.raises(ValueError):
        ReturnAddressStack(depth=0)
