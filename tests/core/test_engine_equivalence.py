"""Span skipping and stage routing in the cycle loop are exact.

``run()`` jumps spans in which nothing can happen: the base scheduler
jumps idle spans, and ``CDFPipeline._next_cycle`` also jumps CDF mode's
quiet stall spans, adding the per-cycle counters for the cycles it
skips.  Ticking through those spans instead must leave every result
unchanged except the counters that count ticks.

While CDF is regular-only, ``CDFPipeline`` runs the base ``_dispatch``
and ``_retire``.  Running its general stages instead must leave every
result unchanged, tick counters included.
"""

import functools

import pytest

from repro.cdf import CDFPipeline
from repro.config import SimConfig
from repro.core import BaselinePipeline
from repro.harness import run_benchmark, runner
from repro.harness.sweep import memory_speed_knob
from repro.isa import assemble, execute
from repro.verify import campaign

#: Counters that count ticked cycles rather than machine events: the
#: only ones a different tick set may move.  All but the first exist
#: only at verify or obs level >= 1.
TICK_COUNTERS = frozenset({
    "idle_skipped_cycles", "verify_cycle_checks",
    "verify_structural_scans", "verify_cache_scans", "obs_samples",
})

#: CI's fuzz seeds, plus four seeds whose CDF runs raise dependence
#: violations (flushes and rename-stall windows).
FUZZ_SEEDS = tuple(range(12)) + (21, 29, 65, 67)


def small_trace():
    program = assemble("""
        movi r1, 40
        movi r2, 4096
    loop:
        load r3, [r2]
        add  r4, r3, 1
        store r4, [r2 + 8]
        sub  r1, r1, 1
        bnez r1, loop
        halt
    """)
    return execute(program, {4096: 5})


def without_tick_counters(result):
    """``result.to_dict()`` minus :data:`TICK_COUNTERS`."""
    data = result.to_dict()
    data["counters"] = {key: value
                        for key, value in data["counters"].items()
                        if key not in TICK_COUNTERS}
    return data


class EveryCycleProbe(BaselinePipeline):
    """Ticks every cycle and records each ticked one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ticked = []

    def _next_cycle(self, cycle):
        self.ticked.append(cycle)
        return cycle + 1


class TickingCDFPipeline(CDFPipeline):
    """Reference: ticks every cycle while any CDF structure is live,
    and otherwise jumps only the base scheduler's idle spans."""

    def _next_cycle(self, cycle):
        if self.cdf_mode or self.crit_fetch_buffer or self.rob_crit:
            return cycle + 1
        return BaselinePipeline._next_cycle(self, cycle)


class GeneralCDFPipeline(CDFPipeline):
    """Reference: never regular-only, so every CDF stage runs its
    general code."""

    def _regular_only(self, cycle):
        return False


class RoutingProbe(CDFPipeline):
    """Counts the stage calls that took the regular-only route."""

    routed_calls = 0

    def _regular_only(self, cycle):
        routed = super()._regular_only(cycle)
        RoutingProbe.routed_calls += routed
        return routed


@functools.lru_cache(maxsize=None)
def probed_fuzz_case(seed):
    """One CDF fuzz case at verify level 2 with the oracle, through
    :class:`RoutingProbe`: its result and how many stage calls took the
    regular-only route.  Shared by the span-skip and routing tests."""
    before = RoutingProbe.routed_calls
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign, "CDFPipeline", RoutingProbe)
        result = campaign.run_fuzz_case(seed, modes=("cdf",)).results["cdf"]
    return result, RoutingProbe.routed_calls - before


def test_ticking_every_cycle_changes_only_idle_skipped_cycles():
    plain = BaselinePipeline(small_trace(), SimConfig.baseline(),
                             benchmark="every-cycle")
    baseline_result = plain.run()
    assert baseline_result.counters["idle_skipped_cycles"] > 0, (
        "the plain run must jump idle spans for the probe to mean much")

    probe = EveryCycleProbe(small_trace(), SimConfig.baseline(),
                            benchmark="every-cycle")
    result = probe.run()

    assert probe.ticked == list(range(probe.cycle)), (
        "a scheduler that returns cycle + 1 must get every cycle ticked")
    assert result.counters["idle_skipped_cycles"] == 0
    assert without_tick_counters(result) \
        == without_tick_counters(baseline_result)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_cdf_span_skip_matches_per_cycle_ticking_on_fuzz(seed, monkeypatch):
    """Oracle and level-2 invariants on, so a skipped span that hid a
    state change would also trip the verifier on the skipping side."""
    skipped, _ = probed_fuzz_case(seed)
    monkeypatch.setattr(campaign, "CDFPipeline", TickingCDFPipeline)
    ticked = campaign.run_fuzz_case(seed, modes=("cdf",)).results["cdf"]
    assert without_tick_counters(skipped) == without_tick_counters(ticked)


def test_cdf_span_skip_matches_per_cycle_ticking_on_memory_bound_mcf(
        monkeypatch):
    config = memory_speed_knob(SimConfig.with_cdf(), 2.0)
    skipped = run_benchmark("mcf", "cdf", scale=0.3, config=config)
    monkeypatch.setattr(runner, "CDFPipeline", TickingCDFPipeline)
    ticked = run_benchmark("mcf", "cdf", scale=0.3, config=config)

    assert skipped.counters["cdf_mode_cycles"] > 0
    assert skipped.counters["idle_skipped_cycles"] \
        > ticked.counters["idle_skipped_cycles"], (
        "CDF mode's quiet stall spans must be skipped")
    assert without_tick_counters(skipped) == without_tick_counters(ticked)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_regular_only_stages_match_the_general_cdf_path_on_fuzz(
        seed, monkeypatch):
    """Oracle and level-2 invariants on, on both sides."""
    routed, routed_calls = probed_fuzz_case(seed)
    monkeypatch.setattr(campaign, "CDFPipeline", GeneralCDFPipeline)
    general = campaign.run_fuzz_case(seed, modes=("cdf",)).results["cdf"]
    assert routed_calls > 0
    assert routed.to_dict() == general.to_dict()


@pytest.mark.parametrize("overrides, routes", [
    ({"dynamic_partitioning": False}, False),
    ({"non_critical_uop_cache": True}, True),
], ids=["static-partitioning", "nc-uop-cache"])
def test_regular_only_stages_match_the_general_cdf_path_on_mcf(
        overrides, routes, monkeypatch):
    """Static partitions never decay to zero, so that ablation must
    never take the regular-only route."""
    config = SimConfig.with_cdf()
    for name, value in overrides.items():
        setattr(config.cdf, name, value)
    before = RoutingProbe.routed_calls
    monkeypatch.setattr(runner, "CDFPipeline", RoutingProbe)
    routed = run_benchmark("mcf", "cdf", scale=0.3, config=config)
    routed_calls = RoutingProbe.routed_calls - before
    monkeypatch.setattr(runner, "CDFPipeline", GeneralCDFPipeline)
    general = run_benchmark("mcf", "cdf", scale=0.3, config=config)
    assert routed.counters["cdf_mode_cycles"] > 0
    assert (routed_calls > 0) == routes
    assert routed.to_dict() == general.to_dict()
