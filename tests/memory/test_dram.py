"""Unit tests for the banked DRAM timing model."""

import pytest

from repro.config import DRAMConfig
from repro.memory import DRAMModel


def make_dram(**overrides) -> DRAMModel:
    cfg = DRAMConfig(**overrides)
    return DRAMModel(cfg, core_freq_ghz=3.2)


def test_timing_conversion():
    cfg = DRAMConfig()
    # 16 memory cycles at 1200MHz == 42.67 core cycles at 3.2GHz, round up.
    assert cfg.core_cycles(16, 3.2) == 43


def test_row_hit_faster_than_row_conflict():
    d = make_dram()
    first = d.access(0, 0)                   # cold: row miss
    # Same bank, same row: next line in the same row of the same bank.
    same_row_line = d.config.channels * d.banks_per_channel
    # find a line mapping to same (channel, bank, row)
    ch0, b0, r0 = d.map_address(0)
    candidate = None
    for line in range(1, 100_000):
        if d.map_address(line) == (ch0, b0, r0):
            candidate = line
            break
    assert candidate is not None
    second = d.access(first, candidate)      # row hit
    hit_latency = second - first
    # Now a different row, same bank -> conflict.
    conflict = None
    for line in range(1, 1_000_000):
        ch, bank, row = d.map_address(line)
        if (ch, bank) == (ch0, b0) and row != r0:
            conflict = line
            break
    third = d.access(second, conflict)
    conflict_latency = third - second
    assert hit_latency < conflict_latency
    assert d.row_hits >= 1 and d.row_conflicts >= 1


def test_bank_parallelism_beats_serialisation():
    d1 = make_dram()
    # Four requests to different banks at cycle 0 complete much earlier
    # than four to the same bank.
    parallel_done = max(d1.access(0, line) for line in range(4))

    d2 = make_dram()
    ch0, b0, r0 = d2.map_address(0)
    same_bank_lines = [0]
    for line in range(1, 10_000_000):
        ch, bank, row = d2.map_address(line)
        if (ch, bank) == (ch0, b0) and row != d2.map_address(same_bank_lines[-1])[2]:
            same_bank_lines.append(line)
            if len(same_bank_lines) == 4:
                break
    serial_done = 0
    for line in same_bank_lines:
        serial_done = max(serial_done, d2.access(0, line))
    assert parallel_done < serial_done


def test_channel_interleaving():
    d = make_dram(channels=2)
    assert d.map_address(0)[0] == 0
    assert d.map_address(1)[0] == 1
    assert d.map_address(2)[0] == 0


def test_traffic_attribution():
    d = make_dram()
    d.access(0, 0, source="demand")
    d.access(0, 1, source="prefetch")
    d.access(0, 2, source="runahead")
    d.access(0, 3, source="writeback", is_write=True)
    assert d.reads["demand"] == 1
    assert d.reads["prefetch"] == 1
    assert d.reads["runahead"] == 1
    assert d.writes["writeback"] == 1
    assert d.total_traffic == 4


def test_unknown_source_rejected():
    d = make_dram()
    with pytest.raises(ValueError):
        d.access(0, 0, source="mystery")


def test_completion_monotone_per_bank():
    d = make_dram()
    t1 = d.access(0, 0)
    t2 = d.access(0, 0)  # same line again, bank busy until t1
    assert t2 > t1


def test_reset_stats():
    d = make_dram()
    d.access(0, 0)
    d.reset_stats()
    assert d.total_traffic == 0
    assert d.row_hits == d.row_misses == d.row_conflicts == 0
