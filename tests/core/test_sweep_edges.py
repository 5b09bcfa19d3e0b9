"""The extremes of the sweep knobs, and ROB and width extremes, run
clean under every pipeline.

Each edge runs mcf in all three modes with the level-2 invariant checker
and the differential oracle attached: no exception, no ``max_cycles``
abort, CDF mode entered on every CDF run, and the CDF run equal to the
per-cycle-ticking reference.  Scale 0.17 is the smallest at which CDF
mode engages on every edge; at 0.05 it engages on none.
"""

import dataclasses

import pytest

from repro.harness import run_benchmark, runner
from repro.harness.runner import config_for_mode
from repro.harness.sweep import llc_size_knob, memory_speed_knob, mshr_knob
from tests.core.test_engine_equivalence import (
    TickingCDFPipeline,
    without_tick_counters,
)

SCALE = 0.17


def rob_size(size):
    def edge(config):
        config = config.copy()
        config.core = config.core.scaled(size)
        return config
    return edge


def width_one(config):
    config = config.copy()
    config.core = dataclasses.replace(
        config.core, fetch_width=1, rename_width=1, issue_width=1,
        retire_width=1)
    return config


EDGES = {
    "mshrs-1": lambda config: mshr_knob(config, 1),
    "llc-128k": lambda config: llc_size_knob(config, 128 * 1024),
    "memory-speed-2": lambda config: memory_speed_knob(config, 2.0),
    "rob-64": rob_size(64),
    "rob-512": rob_size(512),
    "width-1": width_one,
}


def run_edge(edge, mode):
    config = EDGES[edge](config_for_mode(mode))
    config.verify_level = 2
    return run_benchmark("mcf", mode, scale=SCALE, config=config)


@pytest.mark.parametrize("mode", ("baseline", "pre"))
@pytest.mark.parametrize("edge", sorted(EDGES))
def test_edge_runs_clean(edge, mode):
    result = run_edge(edge, mode)
    assert result.retired_uops > 0
    assert result.counters["verify_oracle_uops"] > 0


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_cdf_edge_engages_and_matches_per_cycle_ticking(edge, monkeypatch):
    skipped = run_edge(edge, "cdf")
    assert skipped.counters["cdf_mode_cycles"] > 0, (
        f"CDF mode never engaged on edge {edge} at scale {SCALE}")
    monkeypatch.setattr(runner, "CDFPipeline", TickingCDFPipeline)
    ticked = run_edge(edge, "cdf")
    assert without_tick_counters(skipped) == without_tick_counters(ticked)
