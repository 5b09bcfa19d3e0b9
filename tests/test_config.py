"""Unit tests for the configuration layer (Table 1 defaults)."""

import pytest

from repro.config import (
    CacheConfig,
    CDFConfig,
    CoreConfig,
    DRAMConfig,
    PREConfig,
    PrefetcherConfig,
    SimConfig,
)


def test_baseline_matches_table1_core():
    core = SimConfig.baseline().core
    assert (core.freq_ghz, core.issue_width) == (3.2, 6)
    assert (core.rob_size, core.rs_size) == (352, 160)
    assert (core.lq_size, core.sq_size) == (128, 72)


def test_baseline_matches_table1_caches_and_memory():
    cfg = SimConfig.baseline()
    assert (cfg.l1i.size_bytes, cfg.l1i.ways) == (32 * 1024, 8)
    assert cfg.l1d.latency == 2
    assert (cfg.llc.size_bytes, cfg.llc.ways) == (1024 * 1024, 16)
    assert cfg.llc.latency == 18
    assert cfg.llc.line_bytes == 64
    assert (cfg.dram.channels, cfg.dram.ranks) == (2, 1)
    assert (cfg.dram.bank_groups, cfg.dram.banks_per_group) == (4, 4)
    assert (cfg.dram.trp, cfg.dram.tcl, cfg.dram.trcd) == (16, 16, 16)


def test_cdf_structures_match_table1():
    cdf = SimConfig.with_cdf().cdf
    assert (cdf.cct_entries, cdf.cct_ways) == (64, 2)
    assert cdf.mask_cache_entries * 8 == 4 * 1024               # 4KB
    assert cdf.uop_cache_entries * cdf.uops_per_trace * 8 == 18 * 1024
    assert cdf.fill_buffer_entries == 1024
    assert cdf.delayed_branch_queue_entries == 256
    assert cdf.critical_map_queue_entries == 256


def test_mode_selection_helpers():
    assert SimConfig.baseline().mode() == "baseline"
    assert SimConfig.with_cdf().mode() == "cdf"
    assert SimConfig.with_pre().mode() == "pre"
    assert SimConfig.with_cdf().cdf.enabled
    assert not SimConfig.with_cdf().pre.enabled
    assert SimConfig.with_pre().pre.enabled


def test_cache_num_sets():
    cfg = CacheConfig(size_bytes=32 * 1024, ways=8, latency=2)
    assert cfg.num_sets == 64
    llc = CacheConfig(size_bytes=1024 * 1024, ways=16, latency=18)
    assert llc.num_sets == 1024


def test_core_scaling_is_proportional():
    core = CoreConfig()
    scaled = core.scaled(704)
    assert scaled.rob_size == 704
    assert scaled.rs_size == pytest.approx(320, abs=2)
    assert scaled.lq_size == pytest.approx(256, abs=2)
    assert scaled.sq_size == pytest.approx(144, abs=2)
    assert scaled.num_phys_regs > core.num_phys_regs
    # Original untouched (dataclasses.replace semantics).
    assert core.rob_size == 352


def test_core_scaling_down_keeps_minimums():
    small = CoreConfig().scaled(16)
    assert small.rs_size >= 16
    assert small.lq_size >= 8
    assert small.sq_size >= 8


def test_dram_core_cycles_rounds_up():
    dram = DRAMConfig()
    assert dram.core_cycles(16, 3.2) == 43     # 16 * 2.667 = 42.67 -> 43
    assert dram.core_cycles(0, 3.2) == 0


def test_cdf_defaults_match_paper_text():
    cdf = CDFConfig()
    assert cdf.fill_buffer_entries == 1024
    assert cdf.fill_interval_uops == 10_000
    assert cdf.fill_latency_cycles == 1200
    assert cdf.mask_cache_reset_interval == 200_000
    assert cdf.min_critical_fraction == pytest.approx(0.02)
    assert cdf.max_critical_fraction == pytest.approx(0.50)
    assert cdf.stall_cycle_threshold == 4
    assert cdf.rob_partition_step == 8
    assert cdf.lsq_partition_step == 2
    assert cdf.uops_per_trace == 8
    assert cdf.mark_branches_critical


def test_pre_defaults():
    pre = PREConfig()
    assert pre.enter_exit_overhead > 0
    assert 0.0 <= pre.stale_chain_fraction <= 1.0
    assert pre.max_runahead_distance > 0


def test_prefetcher_defaults():
    pf = PrefetcherConfig()
    assert pf.enabled
    assert pf.num_streams == 64
    assert pf.min_degree <= pf.initial_degree <= pf.max_degree


def test_configs_are_independent_instances():
    a = SimConfig.baseline()
    b = SimConfig.baseline()
    a.core.rob_size = 10
    assert b.core.rob_size == 352


# ----------------------------------------------------- freeze + memoization
def test_freeze_blocks_mutation_recursively():
    from repro.config import FrozenConfigError

    config = SimConfig.with_cdf()
    assert not config.frozen
    config.freeze()
    assert config.frozen
    assert config.core.frozen                 # nested configs freeze too
    with pytest.raises(FrozenConfigError):
        config.verify_level = 1
    with pytest.raises(FrozenConfigError):
        config.core.rob_size = 16
    with pytest.raises(FrozenConfigError):
        config.cdf.fill_interval_uops = 1


def test_frozen_copy_is_mutable_and_equal():
    config = SimConfig.with_pre().freeze()
    clone = config.copy()
    assert not clone.frozen
    assert clone == config
    clone.core.rob_size = 64                  # mutating the copy is fine
    assert config.core.rob_size != 64


def test_fingerprint_memo_matches_unfrozen_computation():
    mutable = SimConfig.with_cdf()
    frozen = SimConfig.with_cdf().freeze()
    assert frozen.canonical_json() == mutable.canonical_json()
    assert frozen.fingerprint() == mutable.fingerprint()
    # Memoized: repeated calls return the identical string object.
    assert frozen.canonical_json() is frozen.canonical_json()
    assert frozen.fingerprint() is frozen.fingerprint()
    # to_dict round-trips losslessly through the memoized JSON.
    assert frozen.to_dict() == mutable.to_dict()


def test_to_dict_of_frozen_config_returns_fresh_mutable_dict():
    frozen = SimConfig.baseline().freeze()
    first = frozen.to_dict()
    first["core"]["rob_size"] = 1             # caller may scribble on it
    assert frozen.to_dict()["core"]["rob_size"] == 352


def test_engine_job_freezes_config_and_memoizes_key():
    from repro.harness.engine import Job

    config = SimConfig.with_cdf()
    job = Job("bzip", "cdf", scale=0.1, config=config)
    assert config.frozen                      # frozen at Job construction
    assert job.key() == job.key()
    other = Job("bzip", "cdf", scale=0.1, config=SimConfig.with_cdf())
    assert job.key() == other.key()           # equal configs, equal keys
