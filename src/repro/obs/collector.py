"""The ObsCollector: binds to a pipeline and records telemetry.

Attachment mirrors :class:`repro.verify.PipelineVerifier`: the harness
constructs a collector when ``SimConfig.obs_level > 0`` and calls
``pipeline.attach_observer(collector)``, which invokes :meth:`bind`.
Binding wires three existing hook surfaces — no new per-uop hook sites
exist in the pipelines:

* the run loop's ``observer.on_cycle_end(cycle)`` call (one ``is not
  None`` comparison per simulated cycle at level 0);
* the pipelines' ``event_log`` (level 2 points it at the collector's
  uop-event list, reusing the timeline's plumbing verbatim);
* ``MemoryHierarchy.obs`` (every request path reports issue/completion/
  level/source/merge through :meth:`on_mem_request`).

Determinism: the collector only *reads* pipeline state.  Gauge sampling
is driven by the simulated cycle (``cycle // interval`` buckets), so the
sample grid is identical across hosts and processes; all payload dicts
are built with sorted, static keys.  The one deliberate exception to
"only reads" is installing ``event_log`` at level 2 — the event log was
always observational (stage code appends to it but never reads it), so
results other than the obs payload itself stay bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .events import MemEvent, UopEvent

#: Cap on individually-recorded memory events (level 2); beyond this
#: the collector keeps aggregating but stops recording rows.
DEFAULT_MAX_MEM_EVENTS = 200_000
#: Cap on recorded uop lifecycle events (level 2).
DEFAULT_MAX_UOP_EVENTS = 1_000_000


class _BoundedEventLog(list):
    """A list that silently stops growing past *cap* (counts drops).

    The pipelines append lifecycle tuples unconditionally once
    ``event_log`` is set; at production trace lengths an unbounded list
    would dominate memory.  Dropped counts are reported in the payload
    so truncation is never silent in the output.
    """

    def __init__(self, cap: int) -> None:
        super().__init__()
        self.cap = cap
        self.dropped = 0

    def append(self, item) -> None:  # type: ignore[override]
        if len(self) < self.cap:
            super().append(item)
        else:
            self.dropped += 1


class ObsCollector:
    """Collects telemetry from one pipeline run at ``obs_level >= 1``."""

    def __init__(self, level: int, sample_interval: int = 128) -> None:
        if level < 1:
            raise ValueError("ObsCollector requires obs_level >= 1; "
                             "level 0 must not construct a collector")
        self.level = level
        self.interval = max(1, sample_interval)
        self.pipeline = None
        # Gauge time-series: columnar dict-of-lists with a stable schema
        # fixed at the first sample (pipeline.obs_gauges() keys).
        self.samples: Dict[str, List[int]] = {}
        self._sample_columns: Optional[List[str]] = None
        self._next_sample_bucket = 0
        # Memory-latency attribution, always aggregated at level >= 1:
        # "level/source" -> [requests, total_latency, merges].
        self.mem_totals: Dict[str, List[int]] = {}
        # Individual records, level 2 only.
        self.mem_events: List[MemEvent] = []
        self.dropped_mem_events = 0
        self.uop_events: Optional[_BoundedEventLog] = None

    # ------------------------------------------------------------- binding
    def bind(self, pipeline) -> "ObsCollector":
        """Wire this collector into *pipeline*; returns self."""
        self.pipeline = pipeline
        pipeline.mem.obs = self
        if self.level >= 2:
            log = _BoundedEventLog(DEFAULT_MAX_UOP_EVENTS)
            if pipeline.event_log:
                log.extend(pipeline.event_log)
            pipeline.event_log = log
            self.uop_events = log
        return self

    # ------------------------------------------------------------- hooks
    def on_cycle_end(self, cycle: int) -> None:
        """Called by the run loop every simulated cycle.

        Sampling buckets are ``cycle // interval`` so that idle-skip
        jumps in the cycle loop cannot shift the grid: the first cycle
        simulated at-or-after each bucket boundary produces the sample.
        """
        bucket = cycle // self.interval
        if bucket >= self._next_sample_bucket:
            self._next_sample_bucket = bucket + 1
            self._sample(cycle)

    def _sample(self, cycle: int) -> None:
        gauges = self.pipeline.obs_gauges(cycle)
        columns = self._sample_columns
        if columns is None:
            columns = sorted(gauges)
            self._sample_columns = columns
            self.samples = {name: [] for name in columns}
        samples = self.samples
        for name in columns:
            samples[name].append(gauges[name])

    def on_mem_request(self, issue: int, completion: int, line: int,
                       level: str, source: str, merged: bool) -> None:
        """Request-level latency attribution from the memory hierarchy."""
        key = level + "/" + source
        totals = self.mem_totals.get(key)
        if totals is None:
            totals = [0, 0, 0]
            self.mem_totals[key] = totals
        totals[0] += 1
        totals[1] += completion - issue
        totals[2] += merged
        if self.level >= 2:
            if len(self.mem_events) < DEFAULT_MAX_MEM_EVENTS:
                self.mem_events.append(
                    MemEvent(issue, completion, line, level, source,
                             bool(merged)))
            else:
                self.dropped_mem_events += 1

    def on_run_end(self, cycle: int) -> None:
        """Final sample at the last simulated cycle, plus obs counters."""
        self._sample(cycle)
        counters = self.pipeline.counters
        counters["obs_samples"] = self._sample_count()
        counters["obs_mem_events"] = sum(
            t[0] for t in self.mem_totals.values())
        counters["obs_uop_events"] = (
            len(self.uop_events) + self.uop_events.dropped
            if self.uop_events is not None else 0)

    # ------------------------------------------------------------- payload
    def _sample_count(self) -> int:
        if not self.samples:
            return 0
        return len(next(iter(self.samples.values())))

    def payload(self) -> dict:
        """The JSON-able obs payload stored on ``SimResult.obs``."""
        data: dict = {
            "level": self.level,
            "sample_interval": self.interval,
            "samples": {name: list(values)
                        for name, values in sorted(self.samples.items())},
            "mem_latency": {key: {"requests": t[0],
                                  "total_latency": t[1],
                                  "merges": t[2]}
                            for key, t in sorted(self.mem_totals.items())},
        }
        if self.level >= 2:
            data["mem_events"] = [list(e) for e in self.mem_events]
            data["dropped_mem_events"] = self.dropped_mem_events
            log = self.uop_events
            data["uop_events"] = [list(e) for e in log] if log else []
            data["dropped_uop_events"] = log.dropped if log else 0
        return data
