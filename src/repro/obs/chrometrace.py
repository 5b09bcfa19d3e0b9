"""Chrome-trace (Perfetto-loadable) JSON export of an obs payload.

Produces the JSON Object Format of the Trace Event specification — a
top-level object with a ``traceEvents`` list — which both
``chrome://tracing`` and https://ui.perfetto.dev load directly:

* one **counter track** (``"ph": "C"``) per occupancy gauge (ROB, RS,
  LQ/SQ, MSHR fill, CDF partition boundary, fetch-ahead distance, ...),
  emitted from the level-1 sampled time-series;
* **async slices** (``"ph": "b"`` / ``"ph": "e"``) for individual memory
  requests (level 2), one timeline row per traffic class, so overlapping
  DRAM requests — the MLP the paper is about — render as stacked
  in-flight spans; merged requests carry ``"merged": true`` args;
* **complete slices** (``"ph": "X"``) for the first uop lifecycles
  (level 2, capped), dispatch -> retire, with per-stage timestamps in
  ``args``.

Timestamps: the trace clock is *cycles* reported in the spec's
microsecond field (1 cycle == 1 us), which keeps Perfetto's zooming and
duration labels readable; a clock note is stored in ``otherData``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .events import mem_events_from_rows, uop_lifetimes

#: Cap on uop lifecycle slices in the trace (browsers choke far earlier
#: than the collector's event cap).
DEFAULT_MAX_UOP_SLICES = 5_000

_PID = 1


def _meta(name: str, tid: int, track: str) -> dict:
    return {"ph": "M", "name": "thread_name", "pid": _PID, "tid": tid,
            "args": {"name": track}}


def export_chrome_trace(obs: dict, label: str = "repro-sim",
                        provenance: Optional[dict] = None) -> dict:
    """Convert an ``SimResult.obs`` payload into a Chrome-trace object.

    ``provenance`` (config fingerprint, code-version salt, run
    parameters) is stored under ``otherData`` so a saved trace is
    attributable to the exact configuration and tree that produced it.
    """
    events: List[dict] = [
        {"ph": "M", "name": "process_name", "pid": _PID, "tid": 0,
         "args": {"name": label}},
    ]
    # ---------------------------------------------------- counter tracks
    samples: Dict[str, List[int]] = obs.get("samples", {})
    interval = int(obs.get("sample_interval", 1))
    cycles = samples.get("cycle", [])
    for name in sorted(samples):
        if name == "cycle":
            continue
        series = samples[name]
        for cycle, value in zip(cycles, series):
            events.append({"ph": "C", "name": name, "pid": _PID,
                           "ts": cycle, "args": {name: value}})
    # ---------------------------------------------------- memory slices
    tids: Dict[str, int] = {}
    next_tid = 2
    for index, event in enumerate(
            mem_events_from_rows(obs.get("mem_events", []))):
        track = f"mem {event.level}/{event.source}"
        tid = tids.get(track)
        if tid is None:
            tid = next_tid
            next_tid += 1
            tids[track] = tid
            events.append(_meta(track, tid, track))
        ident = f"mem{index}"
        args = {"line": event.line, "latency": event.latency,
                "merged": event.merged}
        name = event.level + "/" + event.source
        events.append({"ph": "b", "cat": "mem", "id": ident, "name": name,
                       "pid": _PID, "tid": tid, "ts": event.issue,
                       "args": args})
        events.append({"ph": "e", "cat": "mem", "id": ident, "name": name,
                       "pid": _PID, "tid": tid,
                       "ts": max(event.completion, event.issue)})
    # ---------------------------------------------------- uop lifecycles
    uop_events = obs.get("uop_events", [])
    if uop_events:
        tid = 1
        events.append(_meta("uops", tid, "uops (dispatch->retire)"))
        lifetimes = uop_lifetimes(uop_events)
        emitted = 0
        for seq in sorted(lifetimes):
            stages = lifetimes[seq]
            start = stages.get("D", stages.get("F"))
            end = stages.get("R", stages.get("C"))
            if start is None or end is None:
                continue
            events.append({"ph": "X", "cat": "uop", "name": f"uop {seq}",
                           "pid": _PID, "tid": tid, "ts": start,
                           "dur": max(1, end - start),
                           "args": {k: v for k, v in sorted(stages.items())}})
            emitted += 1
            if emitted >= DEFAULT_MAX_UOP_SLICES:
                break
    other = {
        "clock": "1 trace us == 1 core cycle",
        "label": label,
        "obs_level": obs.get("level"),
        "sample_interval": interval,
    }
    if provenance:
        other["provenance"] = dict(provenance)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def validate_chrome_trace(trace: dict) -> List[str]:
    """Schema-check a Chrome-trace object; returns a list of problems.

    An empty list means the object satisfies the subset of the Trace
    Event Format that Perfetto requires to load it: a ``traceEvents``
    list whose entries carry a valid ``ph``, string ``name``, integer
    ``pid``/``tid`` where applicable, numeric ``ts`` for timed events,
    and matched begin/end pairs per async id.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["top level is not an object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    open_async: Dict[str, int] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("B", "E", "X", "I", "C", "M", "b", "e", "n", "s",
                      "t", "f"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing/non-string name")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where}: missing/non-numeric ts")
        if ph == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"{where}: X event without numeric dur")
        if ph in ("b", "e"):
            if "id" not in event or "cat" not in event:
                problems.append(f"{where}: async event without id/cat")
            else:
                key = f"{event['cat']}:{event['id']}"
                if ph == "b":
                    open_async[key] = open_async.get(key, 0) + 1
                else:
                    count = open_async.get(key, 0)
                    if count <= 0:
                        problems.append(
                            f"{where}: 'e' with no matching 'b' ({key})")
                    else:
                        open_async[key] = count - 1
    for key, count in sorted(open_async.items()):
        if count:
            problems.append(f"unclosed async slice {key} (depth {count})")
    return problems


def write_chrome_trace(obs: dict, path: str, label: str = "repro-sim",
                       provenance: Optional[dict] = None) -> dict:
    """Export, validate, and write a trace; returns the trace object."""
    trace = export_chrome_trace(obs, label=label, provenance=provenance)
    problems = validate_chrome_trace(trace)
    if problems:
        raise ValueError("generated trace failed self-validation: "
                         + "; ".join(problems[:5]))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, separators=(",", ":"))
    return trace

