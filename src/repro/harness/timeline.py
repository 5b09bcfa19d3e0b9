"""ASCII pipeline-timeline rendering on the obs event schema.

Turn a per-uop lifecycle event stream into a waterfall diagram (one row
per dynamic uop, one column per cycle) — the clearest way to *see*
Criticality Driven Fetch working: critical uops ('f'/'d') jump far ahead
of the non-critical stream and their loads issue long before their
program-order neighbours.

The event schema is :mod:`repro.obs.events` — ``(cycle, kind, seq)``
tuples with kinds from :data:`repro.obs.EVENT_KINDS` — which is exactly
what the pipelines' ``event_log`` emits and what
:class:`repro.obs.ObsCollector` records at obs_level 2, so the renderer
accepts either a raw event list (``pipeline.event_log``) or a collected
obs payload (``result.obs``); the Chrome-trace exporter and the run
report consume the same stream.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

#: Backwards-compatible alias for the shared schema's event tuple
#: (:data:`repro.obs.events.UopEvent`).  The schema module itself is
#: imported lazily inside the functions below: ``repro.harness`` pulls
#: this module in at import time, and the obs_level-0 contract
#: (docs/observability.md) promises ``repro.obs`` is never imported
#: unless telemetry is actually consumed.
Event = Tuple[int, str, int]


def _as_event_list(events: Union[Sequence[Event], dict, None]
                   ) -> Sequence[Event]:
    """Accept a raw event_log list or an ``SimResult.obs`` payload."""
    if events is None:
        return []
    if isinstance(events, dict):
        return events.get("uop_events", [])
    return events


def render_timeline(event_log, trace,
                    first_seq: int, last_seq: int,
                    max_width: int = 110,
                    describe=None) -> str:
    """Render a waterfall for uops [first_seq, last_seq].

    ``event_log`` is a lifecycle event stream: a pipeline's
    ``event_log`` list or a collected ``result.obs`` payload (obs_level
    2).  ``describe(uop) -> str`` customises the row label (defaults to
    a short disassembly-ish tag).
    """
    from ..obs.events import group_uop_events
    per_seq = group_uop_events(_as_event_list(event_log), first_seq,
                               last_seq)
    if not per_seq:
        return ("(no events in range - did you set pipeline.event_log "
                "or run with obs_level=2?)")
    start_cycle = min(cycle for events in per_seq.values()
                      for cycle, _ in events)
    end_cycle = max(cycle for events in per_seq.values()
                    for cycle, _ in events)
    # Compress time if the window is wider than max_width columns.
    span = end_cycle - start_cycle + 1
    step = max(1, -(-span // max_width))
    columns = -(-span // step)

    def column(cycle: int) -> int:
        return (cycle - start_cycle) // step

    label_width = 26
    lines: List[str] = []
    header = (f"cycles {start_cycle}..{end_cycle}"
              + (f"  (1 column = {step} cycles)" if step > 1 else ""))
    lines.append(header)
    for seq in range(first_seq, last_seq + 1):
        events = sorted(per_seq.get(seq, []))
        row = [" "] * columns
        issue_col = complete_col = None
        for cycle, kind in events:
            col = column(cycle)
            if kind == "I":
                issue_col = col
            if kind == "C":
                complete_col = col
            row[col] = kind
        if issue_col is not None and complete_col is not None:
            for col in range(issue_col + 1, complete_col):
                if row[col] == " ":
                    row[col] = "="
        uop = trace[seq]
        if describe is not None:
            label = describe(uop)
        else:
            kind_tag = ("LD" if uop.is_load else "ST" if uop.is_store
                        else "BR" if uop.is_branch else "  ")
            label = f"#{seq} pc={uop.pc:<4d} {kind_tag}"
        lines.append(f"{label:<{label_width}}|{''.join(row)}|")
    lines.append("legend: F/f fetch  D/d rename  I issue  = exec  "
                 "C complete  p replay  R retire  (lowercase = critical "
                 "stream)")
    return "\n".join(lines)


def first_seq_at_pc(trace, pc: int, occurrence: int = 0) -> Optional[int]:
    """Find the seq of the n-th dynamic instance of static *pc*."""
    seen = 0
    for uop in trace:
        if uop.pc == pc:
            if seen == occurrence:
                return uop.seq
            seen += 1
    return None
