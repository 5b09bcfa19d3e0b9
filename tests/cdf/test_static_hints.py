"""Unit tests for compiler-assisted CDF (static chain hints)."""

import pytest

from repro.cdf import (
    CDFPipeline,
    StaticChainHints,
    preload_hints,
    profile_chains,
)
from repro.config import SimConfig
from repro.core import BaselinePipeline
from repro.harness import load_workload

SCALE = 0.25


@pytest.fixture(scope="module")
def astar():
    workload = load_workload("astar", SCALE)
    return workload, workload.trace()


@pytest.fixture(scope="module")
def hints(astar):
    workload, trace = astar
    return profile_chains(workload.program, trace, profile_uops=8000)


def test_profile_finds_the_critical_blocks(astar, hints):
    workload, trace = astar
    assert len(hints) > 0
    # The loop body block (containing the gather) must be hinted.
    gather = next(u for u in trace if u.is_load and u.mem_addr >= (1 << 26))
    loop_bb = workload.program.basic_block_start(gather.pc)
    assert loop_bb in hints.bb_masks
    assert hints.bb_masks[loop_bb] >> (gather.pc - loop_bb) & 1
    assert 0.0 < hints.critical_fraction < 0.5


def test_preload_installs_blocks(astar, hints):
    workload, trace = astar
    pipeline = CDFPipeline(trace, SimConfig.with_cdf(), workload.program)
    installed = preload_hints(pipeline, hints)
    assert installed == len(hints)
    assert pipeline.counters["static_hint_blocks"] == installed
    # The uop cache hits immediately (no fill latency).
    for bb in hints.bb_masks:
        assert pipeline.uop_cache.lookup(bb, cycle=0) is not None


def test_density_gate_rejects_overmarked_hints(astar):
    workload, trace = astar
    pipeline = CDFPipeline(trace, SimConfig.with_cdf(), workload.program)
    bogus = StaticChainHints(bb_masks={0: (1 << 64) - 1},
                             critical_fraction=0.9)
    assert preload_hints(pipeline, bogus) == 0
    assert pipeline.counters["static_hints_rejected"] == 1


def test_hinted_cdf_engages_earlier_and_is_faster(astar, hints):
    workload, trace = astar
    base = BaselinePipeline(trace, SimConfig.baseline()).run()

    plain = CDFPipeline(trace, SimConfig.with_cdf(),
                        workload.program).run()
    hinted_pipe = CDFPipeline(trace, SimConfig.with_cdf(),
                              workload.program)
    preload_hints(hinted_pipe, hints)
    hinted = hinted_pipe.run()

    assert hinted.counters["cdf_mode_cycles"] > \
        plain.counters["cdf_mode_cycles"]
    assert hinted.ipc >= plain.ipc
    assert hinted.ipc > base.ipc
    # Architectural work unchanged.
    assert hinted.retired_uops == plain.retired_uops


def test_hardware_training_still_refines_hinted_runs(astar, hints):
    """The CCT/Fill Buffer machinery keeps running with hints installed."""
    workload, trace = astar
    pipeline = CDFPipeline(trace, SimConfig.with_cdf(), workload.program)
    preload_hints(pipeline, hints)
    result = pipeline.run()
    assert result.counters["fill_walks"] > 0
