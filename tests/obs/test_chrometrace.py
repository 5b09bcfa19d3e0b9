"""Unit tests for the Chrome-trace exporter and its self-validator."""

import json

import pytest

from repro.obs import (
    export_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)


def _payload():
    """A small hand-built level-2 obs payload."""
    return {
        "level": 2,
        "sample_interval": 10,
        "samples": {
            "cycle": [0, 10, 20],
            "rob": [0, 5, 3],
            "llc_mshr": [1, 2, 0],
        },
        "mem_latency": {"dram/demand": {"requests": 2,
                                        "total_latency": 200,
                                        "merges": 1}},
        "mem_events": [
            [0, 100, 0x40, "dram", "demand", False],
            [5, 100, 0x40, "dram", "demand", True],
        ],
        "dropped_mem_events": 0,
        "uop_events": [
            (0, "F", 0), (1, "D", 0), (2, "I", 0), (5, "C", 0),
            (6, "R", 0),
            (1, "F", 1), (2, "D", 1), (9, "R", 1),
        ],
        "dropped_uop_events": 0,
    }


def test_export_is_valid_and_has_all_phases():
    trace = export_chrome_trace(_payload(), label="unit")
    assert validate_chrome_trace(trace) == []
    phases = {event["ph"] for event in trace["traceEvents"]}
    assert {"M", "C", "b", "e", "X"} <= phases
    assert trace["otherData"]["label"] == "unit"


def test_counter_tracks_skip_the_cycle_column():
    trace = export_chrome_trace(_payload())
    counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
    names = {e["name"] for e in counters}
    assert names == {"rob", "llc_mshr"}
    rob = [e for e in counters if e["name"] == "rob"]
    assert [e["ts"] for e in rob] == [0, 10, 20]
    assert [e["args"]["rob"] for e in rob] == [0, 5, 3]


def test_mem_requests_become_matched_async_slices():
    trace = export_chrome_trace(_payload())
    begins = [e for e in trace["traceEvents"] if e["ph"] == "b"]
    ends = [e for e in trace["traceEvents"] if e["ph"] == "e"]
    assert len(begins) == len(ends) == 2
    assert {e["id"] for e in begins} == {e["id"] for e in ends}
    assert begins[1]["args"]["merged"] is True


def test_uop_slices_use_dispatch_to_retire_and_cap(monkeypatch):
    monkeypatch.setattr("repro.obs.chrometrace.DEFAULT_MAX_UOP_SLICES", 1)
    trace = export_chrome_trace(_payload())
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 1
    assert slices[0]["name"] == "uop 0"
    assert slices[0]["ts"] == 1          # D, not F
    assert slices[0]["dur"] == 5         # R at 6
    assert validate_chrome_trace(trace) == []


def test_level1_payload_exports_counters_only():
    payload = _payload()
    for key in ("mem_events", "uop_events", "dropped_mem_events",
                "dropped_uop_events"):
        payload.pop(key)
    payload["level"] = 1
    trace = export_chrome_trace(payload)
    phases = {event["ph"] for event in trace["traceEvents"]}
    assert "C" in phases
    assert not phases & {"b", "e", "X"}
    assert validate_chrome_trace(trace) == []


@pytest.mark.parametrize("mutate,expect", [
    (lambda t: t.pop("traceEvents"), "traceEvents"),
    (lambda t: t["traceEvents"].append({"ph": "Z", "name": "x", "ts": 0}),
     "unknown phase"),
    (lambda t: t["traceEvents"].append({"ph": "C", "ts": 0}),
     "non-string name"),
    (lambda t: t["traceEvents"].append({"ph": "C", "name": "x"}),
     "non-numeric ts"),
    (lambda t: t["traceEvents"].append(
        {"ph": "X", "name": "x", "ts": 0}), "without numeric dur"),
    (lambda t: t["traceEvents"].append(
        {"ph": "e", "cat": "mem", "id": "nope", "name": "x", "ts": 0}),
     "no matching 'b'"),
    (lambda t: t["traceEvents"].append(
        {"ph": "b", "cat": "mem", "id": "open", "name": "x", "ts": 0}),
     "unclosed async"),
])
def test_validator_catches_malformed_traces(mutate, expect):
    trace = export_chrome_trace(_payload())
    mutate(trace)
    problems = validate_chrome_trace(trace)
    assert problems, f"expected a problem mentioning {expect!r}"
    assert any(expect in problem for problem in problems), problems


def test_write_chrome_trace_round_trips_via_json(tmp_path):
    path = tmp_path / "trace.json"
    trace = write_chrome_trace(_payload(), str(path), label="roundtrip")
    with open(path, encoding="utf-8") as handle:
        loaded = json.load(handle)
    assert loaded == trace
    assert validate_chrome_trace(loaded) == []
