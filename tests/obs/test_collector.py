"""Unit tests for repro.obs.collector (sampling, bounds, payload)."""

import json

import pytest

from repro.obs import ObsCollector
from repro.obs.collector import _BoundedEventLog


class _FakeMem:
    def __init__(self):
        self.obs = None


class _FakePipeline:
    """Just enough pipeline surface for the collector to bind to."""

    def __init__(self, event_log=None):
        self.mem = _FakeMem()
        self.event_log = event_log
        self.counters = {}
        self.gauge_calls = []

    def obs_gauges(self, cycle):
        self.gauge_calls.append(cycle)
        return {"cycle": cycle, "retired": cycle * 2, "rob": cycle % 7}


def test_level_zero_must_not_construct_a_collector():
    with pytest.raises(ValueError):
        ObsCollector(level=0)


def test_bind_wires_memory_hierarchy_hook():
    pipeline = _FakePipeline()
    collector = ObsCollector(level=1)
    assert collector.bind(pipeline) is collector
    assert pipeline.mem.obs is collector


def test_level1_does_not_install_an_event_log():
    pipeline = _FakePipeline(event_log=None)
    ObsCollector(level=1).bind(pipeline)
    assert pipeline.event_log is None


def test_level2_installs_bounded_log_preserving_existing_events():
    pipeline = _FakePipeline(event_log=[(0, "F", 0)])
    collector = ObsCollector(level=2).bind(pipeline)
    assert isinstance(pipeline.event_log, _BoundedEventLog)
    assert list(pipeline.event_log) == [(0, "F", 0)]
    assert collector.uop_events is pipeline.event_log


def test_bounded_event_log_counts_drops():
    log = _BoundedEventLog(cap=3)
    for i in range(5):
        log.append((i, "F", i))
    assert len(log) == 3
    assert log.dropped == 2


def test_sampling_grid_is_cycle_bucketed():
    """One sample per interval bucket, robust to idle-skip jumps."""
    pipeline = _FakePipeline()
    collector = ObsCollector(level=1, sample_interval=10).bind(pipeline)
    # Cycles 0..9 are bucket 0 -> exactly one sample (at cycle 0); the
    # jump from 12 to 57 must produce one sample at 57, not one per
    # skipped bucket; 61 opens bucket 6 and 70 opens bucket 7.
    for cycle in (0, 1, 2, 9, 12, 57, 58, 61, 70):
        collector.on_cycle_end(cycle)
    assert collector.samples["cycle"] == [0, 12, 57, 61, 70]


def test_on_run_end_takes_final_sample_and_sets_counters():
    pipeline = _FakePipeline()
    collector = ObsCollector(level=1, sample_interval=100).bind(pipeline)
    collector.on_cycle_end(0)
    collector.on_mem_request(5, 105, 0x40, "dram", "demand", merged=False)
    collector.on_run_end(42)
    assert collector.samples["cycle"] == [0, 42]
    assert pipeline.counters["obs_samples"] == 2
    assert pipeline.counters["obs_mem_events"] == 1
    assert pipeline.counters["obs_uop_events"] == 0


def test_mem_request_aggregation_and_level2_rows(monkeypatch):
    monkeypatch.setattr("repro.obs.collector.DEFAULT_MAX_MEM_EVENTS", 2)
    pipeline = _FakePipeline()
    collector = ObsCollector(level=2).bind(pipeline)
    collector.on_mem_request(0, 100, 0x40, "dram", "demand", merged=False)
    collector.on_mem_request(1, 100, 0x40, "dram", "demand", merged=True)
    collector.on_mem_request(2, 30, 0x80, "llc", "prefetch", merged=False)
    collector.on_mem_request(3, 99, 0xC0, "dram", "demand", merged=False)
    payload = collector.payload()
    demand = payload["mem_latency"]["dram/demand"]
    assert demand == {"requests": 3, "total_latency": 100 + 99 + 96,
                      "merges": 1}
    # Row recording is capped at 2, aggregation is not.
    assert len(payload["mem_events"]) == 2
    assert payload["dropped_mem_events"] == 2


def test_level1_payload_has_no_event_streams():
    pipeline = _FakePipeline()
    collector = ObsCollector(level=1).bind(pipeline)
    collector.on_mem_request(0, 10, 0x40, "llc", "demand", merged=False)
    payload = collector.payload()
    assert "mem_events" not in payload
    assert "uop_events" not in payload
    assert payload["level"] == 1


def test_payload_is_json_serializable_and_columnar():
    pipeline = _FakePipeline(event_log=[])
    collector = ObsCollector(level=2, sample_interval=1).bind(pipeline)
    for cycle in range(4):
        pipeline.event_log.append((cycle, "F", cycle))
        collector.on_cycle_end(cycle)
    collector.on_run_end(4)
    payload = collector.payload()
    round_tripped = json.loads(json.dumps(payload, sort_keys=True))
    assert round_tripped["samples"]["cycle"] == [0, 1, 2, 3, 4]
    assert round_tripped["samples"]["retired"] == [0, 2, 4, 6, 8]
    assert len(round_tripped["uop_events"]) == 4
    assert round_tripped["dropped_uop_events"] == 0


def test_sample_schema_is_fixed_at_first_sample():
    pipeline = _FakePipeline()
    collector = ObsCollector(level=1, sample_interval=1).bind(pipeline)
    collector.on_cycle_end(0)
    collector.on_cycle_end(1)
    columns = set(collector.samples)
    assert columns == {"cycle", "retired", "rob"}
    assert all(len(v) == 2 for v in collector.samples.values())
