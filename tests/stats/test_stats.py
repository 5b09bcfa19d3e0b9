"""Unit tests for counters, MLP tracking, ROB-stall profiling, SimResult."""

import pytest

from repro.stats import (
    Counters,
    MLPTracker,
    RobStallProfiler,
    SimResult,
    UnknownCounterError,
    is_known,
    mark_critical_chains,
)


# ----------------------------------------------------------------- Counters
def test_counters_missing_reads_zero():
    c = Counters()
    assert c["nope"] == 0


def test_counters_bump_and_delta():
    # Keys must come from the registry: bump() rejects undeclared names.
    c = Counters()
    c.bump("fetch_uops")
    c.bump("fetch_uops", 4)
    snap = c.snapshot()
    c.bump("fetch_uops", 2)
    c.bump("rob_reads")
    delta = c.delta(snap)
    assert delta["fetch_uops"] == 2
    assert delta["rob_reads"] == 1
    assert "nope" not in delta


# ------------------------------------------------------------ key registry
def test_bump_rejects_undeclared_key_in_strict_mode():
    with pytest.raises(UnknownCounterError, match="totally_bogus_counter"):
        Counters().bump("totally_bogus_counter")


def test_dynamic_counter_families():
    assert is_known("dispatch_stall_rob_cycles")
    assert is_known("crit_dispatch_stall_rat_copy_cycles")
    assert not is_known("dispatch_stall_bogus_cycles")
    # dynamic keys bump fine once matched
    c = Counters()
    c.bump("dispatch_stall_lq_cycles", 3)
    assert c["dispatch_stall_lq_cycles"] == 3


# ---------------------------------------------------------------- MLPTracker
def test_mlp_single_interval_is_one():
    t = MLPTracker()
    t.record(0, 100)
    assert t.mlp == pytest.approx(1.0)


def test_mlp_full_overlap():
    t = MLPTracker()
    t.record(0, 100)
    t.record(0, 100)
    t.record(0, 100)
    assert t.mlp == pytest.approx(3.0)


def test_mlp_partial_overlap():
    t = MLPTracker()
    t.record(0, 100)
    t.record(50, 150)
    # 200 cycles of latency over 150 busy cycles.
    assert t.mlp == pytest.approx(200 / 150)


def test_mlp_disjoint_intervals():
    t = MLPTracker()
    t.record(0, 100)
    t.record(200, 300)
    assert t.mlp == pytest.approx(1.0)


def test_mlp_ignores_uncounted_sources():
    t = MLPTracker()
    t.record(0, 100, source="prefetch")
    assert t.intervals == 0
    t.record(0, 100, source="runahead")
    assert t.intervals == 1


def test_mlp_ignores_empty_intervals():
    t = MLPTracker()
    t.record(100, 100)
    t.record(100, 50)
    assert t.intervals == 0
    assert t.mlp == 0.0


def test_mlp_delta_excludes_warmup():
    t = MLPTracker()
    t.record(0, 100)                 # warmup: MLP 1
    snap = t.snapshot()
    t.record(200, 300)
    t.record(200, 300)
    assert t.delta_mlp(snap) == pytest.approx(2.0)


# ----------------------------------------------------------- RobStallProfiler
def test_profiler_accumulates_weighted_occupancy():
    p = RobStallProfiler(10)
    p.on_stall_cycle(2, 5)
    p.on_stall_cycle(4, 7, weight=3)
    occupancy = p.occupancy_cycles()
    assert occupancy[2] == 1
    assert occupancy[4] == 4      # 1 + 3
    assert occupancy[7] == 3
    assert occupancy[9] == 0
    assert p.stall_cycles == 4


def test_profiler_critical_fraction():
    p = RobStallProfiler(4)
    p.on_stall_cycle(0, 3)        # all four uops resident for one cycle
    assert p.critical_fraction({0, 1}) == pytest.approx(0.5)
    assert p.critical_fraction(set()) == 0.0


def test_profiler_empty_is_zero():
    p = RobStallProfiler(4)
    assert p.critical_fraction({0}) == 0.0
    p.on_stall_cycle(3, 2)        # inverted range ignored
    assert p.stall_cycles == 0


# ------------------------------------------------------- mark_critical_chains
class _FakeUop:
    def __init__(self, src_deps=(), store_dep=-1, is_load=False):
        self.src_deps = tuple(src_deps)
        self.store_dep = store_dep
        self.is_load = is_load


def test_mark_critical_chains_follows_registers_and_memory():
    trace = [
        _FakeUop(),                                  # 0: store data producer
        _FakeUop(src_deps=(0,)),                     # 1: store (addr chain)
        _FakeUop(),                                  # 2: unrelated
        _FakeUop(src_deps=(), store_dep=1, is_load=True),   # 3: load<-store
        _FakeUop(src_deps=(3,)),                     # 4: consumer (not root)
    ]
    critical = mark_critical_chains(trace, roots=[3])
    assert critical == {0, 1, 3}


# ------------------------------------------------------------------ SimResult
def make_result(**kw):
    defaults = dict(benchmark="b", mode="baseline", cycles=1000,
                    retired_uops=2000, mlp=2.0,
                    dram_reads={"demand": 10}, dram_writes={"writeback": 2},
                    full_window_stall_cycles=100)
    defaults.update(kw)
    return SimResult(**defaults)


def test_ipc_and_traffic():
    r = make_result()
    assert r.ipc == 2.0
    assert r.total_traffic == 12


def test_ratios_against_baseline():
    base = make_result()
    faster = make_result(cycles=800, dram_reads={"demand": 11},
                         mlp=3.0)
    assert faster.speedup_over(base) == pytest.approx(1000 / 800)
    assert faster.traffic_ratio(base) == pytest.approx(13 / 12)
    assert faster.mlp_ratio(base) == pytest.approx(1.5)


def test_energy_ratio_handles_unset_energy():
    base = make_result()
    other = make_result()
    assert other.energy_ratio(base) == 1.0
    base.energy_nj = 100.0
    other.energy_nj = 90.0
    assert other.energy_ratio(base) == pytest.approx(0.9)


def test_zero_division_guards():
    base = make_result(cycles=0, retired_uops=0, dram_reads={},
                       dram_writes={})
    other = make_result()
    assert base.ipc == 0.0
    assert other.speedup_over(base) == 0.0
    assert other.traffic_ratio(base) == float("inf")
    assert make_result(dram_reads={}, dram_writes={}).traffic_ratio(base) == 1.0


def test_summary_mentions_key_fields():
    text = make_result().summary()
    assert "baseline" in text and "ipc=" in text
