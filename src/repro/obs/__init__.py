"""Observability layer: cycle-level telemetry behind ``SimConfig.obs_level``.

``repro.obs`` mirrors the ``verify_level`` contract (docs/verification.md):

* **level 0** (default): off.  The package is never imported, pipelines
  carry a single ``observer is None`` comparison per hook site, and
  results are bit-identical to a build without the subsystem (pinned by
  ``tests/memory/test_hierarchy_fingerprints.py`` and the trace-smoke CI
  job).
* **level 1**: sampled counter time-series and structure-occupancy
  gauges (ROB/RS/LQ/SQ, frontend queue, MSHR fill, in-flight DRAM, CDF
  partition boundary and fetch-ahead distance, PRE runahead state) every
  ``SimConfig.obs_sample_interval`` cycles, plus aggregate per-request
  memory-latency attribution.
* **level 2**: level 1 plus full per-uop lifecycle events (the
  ``event_log`` schema: ``(cycle, kind_char, seq)``) and individual
  memory-request records (issue -> completion, serviced level, merge
  chains).

The collected payload rides ``SimResult.obs`` through the harness (and
therefore through the engine's persistent result cache), and feeds three
consumers: the Chrome-trace exporter (:func:`export_chrome_trace`,
``repro-sim trace``), the run-report renderer
(:func:`render_run_report`, ``repro-sim report --benchmark``), and the
ASCII timeline (:mod:`repro.harness.timeline`), which all share the one
event schema defined in :mod:`repro.obs.events`.

See docs/observability.md for the guide.
"""

from .chrometrace import (
    export_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .collector import ObsCollector
from .events import (
    EVENT_KINDS,
    MemEvent,
    UopEvent,
    group_uop_events,
    uop_lifetimes,
)
from .runreport import render_run_report

__all__ = [
    "EVENT_KINDS",
    "MemEvent",
    "ObsCollector",
    "UopEvent",
    "export_chrome_trace",
    "group_uop_events",
    "render_run_report",
    "uop_lifetimes",
    "validate_chrome_trace",
    "write_chrome_trace",
]
