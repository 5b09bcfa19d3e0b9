"""Self-contained markdown run reports from an obs payload.

``repro-sim report --benchmark X --mode cdf`` renders one simulation's
telemetry as a document a human can read without any tooling:

* headline metrics (IPC, MLP, cycles, DRAM traffic, energy);
* unicode sparklines of the sampled time-series (IPC per interval,
  ROB/RS occupancy, in-flight DRAM, CDF partition boundary and
  fetch-ahead distance) — the "when does CDF pull misses forward"
  view the end-of-run scalars cannot show;
* the dispatch-stall anatomy table (``dispatch_stall_*_cycles``);
* memory-request latency attribution by level/source (from the obs
  aggregates);
* given a baseline run: a CDF-vs-baseline comparison block including a
  fetch-ahead histogram.

Everything is plain text/markdown, and all of it comes from level-1
telemetry (gauge samples and memory-latency aggregates), which is the
level ``repro-sim report`` runs at.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render *values* as a unicode sparkline of at most *width* chars."""
    values = list(values)
    if not values:
        return "(no samples)"
    if len(values) > width:
        # Average into *width* buckets (deterministic integer split).
        bucketed = []
        n = len(values)
        for b in range(width):
            lo = b * n // width
            hi = max(lo + 1, (b + 1) * n // width)
            chunk = values[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        values = bucketed
    low = min(values)
    high = max(values)
    span = high - low
    if span == 0:
        return SPARK_CHARS[0] * len(values)
    chars = []
    top = len(SPARK_CHARS) - 1
    for value in values:
        index = int((value - low) / span * top + 0.5)
        chars.append(SPARK_CHARS[index])
    return "".join(chars)


def histogram(values: Sequence[float], bins: int = 10,
              bar_width: int = 40) -> List[str]:
    """ASCII histogram lines for *values*."""
    values = list(values)
    if not values:
        return ["(no samples)"]
    low = min(values)
    high = max(values)
    if high == low:
        high = low + 1
    counts = [0] * bins
    span = high - low
    for value in values:
        index = min(bins - 1, int((value - low) / span * bins))
        counts[index] += 1
    peak = max(counts)
    lines = []
    for b, count in enumerate(counts):
        lo = low + span * b / bins
        hi = low + span * (b + 1) / bins
        bar = "#" * (count * bar_width // peak if peak else 0)
        lines.append(f"  [{lo:8.1f}, {hi:8.1f})  {count:>7d} {bar}")
    return lines


def _ipc_series(samples: Dict[str, List[int]]) -> List[float]:
    """Per-interval IPC derived from the cumulative 'retired' gauge."""
    retired = samples.get("retired", [])
    cycles = samples.get("cycle", [])
    series: List[float] = []
    for i in range(1, len(retired)):
        dc = cycles[i] - cycles[i - 1]
        series.append((retired[i] - retired[i - 1]) / dc if dc else 0.0)
    return series


#: Gauges worth a sparkline row, in display order, with labels.
_SPARK_GAUGES = [
    ("rob", "ROB occupancy"),
    ("rob_crit", "ROB critical section"),
    ("crit_partition", "CDF partition boundary"),
    ("fetch_ahead", "fetch-ahead distance"),
    ("rs", "RS occupancy"),
    ("lq", "LQ occupancy"),
    ("sq", "SQ occupancy"),
    ("frontend", "frontend queue"),
    ("l1d_mshr", "L1D MSHRs in flight"),
    ("llc_mshr", "in-flight DRAM (LLC MSHRs)"),
    ("runahead", "runahead active"),
]


def render_run_report(result, baseline=None,
                      provenance: Optional[Dict] = None) -> str:
    """Render *result* (a ``SimResult`` with ``.obs``) as markdown.

    ``provenance`` (config fingerprint, code-version salt, run
    parameters) is appended as a footer so a saved report is
    attributable to the exact configuration and tree that produced it.
    """
    obs = result.obs or {}
    samples = obs.get("samples", {})
    lines: List[str] = []
    out = lines.append

    out(f"# Run report: {result.benchmark} / {result.mode}")
    out("")
    out(f"- **cycles**: {result.cycles:,}")
    out(f"- **retired uops**: {result.retired_uops:,}")
    out(f"- **IPC**: {result.ipc:.3f}")
    out(f"- **MLP**: {result.mlp:.2f}")
    out(f"- **DRAM traffic**: {result.total_traffic:,} lines")
    if result.energy_nj:
        out(f"- **energy**: {result.energy_nj:,.0f} nJ")
    if baseline is not None:
        out(f"- **speedup over baseline**: "
            f"{result.speedup_over(baseline):.3f}x  "
            f"(baseline IPC {baseline.ipc:.3f})")
        out(f"- **traffic ratio**: {result.traffic_ratio(baseline):.3f}x, "
            f"MLP ratio: {result.mlp_ratio(baseline):.3f}x")
    out("")

    if samples:
        interval = obs.get("sample_interval", "?")
        out(f"## Time series ({len(samples.get('cycle', []))} samples, "
            f"every {interval} cycles)")
        out("")
        out("```")
        ipc = _ipc_series(samples)
        if ipc:
            out(f"{'IPC per interval':<28}{sparkline(ipc)}  "
                f"min={min(ipc):.2f} max={max(ipc):.2f}")
        for key, label in _SPARK_GAUGES:
            series = samples.get(key)
            if not series:
                continue
            out(f"{label:<28}{sparkline(series)}  "
                f"min={min(series)} max={max(series)}")
        out("```")
        out("")
    else:
        out("_No sampled time-series (run with `obs_level >= 1`)._")
        out("")

    # ---------------------------------------------------- stall anatomy
    stall_rows = sorted(
        (key, value) for key, value in result.counters.items()
        if key.startswith("dispatch_stall_") and key.endswith("_cycles"))
    out("## Stall anatomy")
    out("")
    if stall_rows:
        total = result.cycles or 1
        out("| resource | stall cycles | % of cycles |")
        out("|---|---:|---:|")
        for key, value in stall_rows:
            resource = key[len("dispatch_stall_"):-len("_cycles")]
            out(f"| {resource} | {value:,} | {100.0 * value / total:.1f}% |")
    else:
        out("_No dispatch stalls recorded._")
    out("")

    # ------------------------------------------------ latency attribution
    mem_latency = obs.get("mem_latency", {})
    out("## Memory-request latency attribution")
    out("")
    if mem_latency:
        out("| level/source | requests | merged | mean latency (cycles) |")
        out("|---|---:|---:|---:|")
        for key in sorted(mem_latency):
            row = mem_latency[key]
            requests = row.get("requests", 0)
            mean = (row.get("total_latency", 0) / requests
                    if requests else 0.0)
            out(f"| {key} | {requests:,} | {row.get('merges', 0):,} "
                f"| {mean:.1f} |")
    else:
        out("_No memory-request aggregates (run with `obs_level >= 1`)._")
    out("")

    # ---------------------------------------------- fetch-ahead histogram
    fetch_ahead = samples.get("fetch_ahead")
    if fetch_ahead:
        out("## Fetch-ahead distance (critical stream vs regular fetch)")
        out("")
        out("How far ahead of the in-order fetch pointer the CDF critical")
        out("stream runs, in trace uops, sampled over time:")
        out("")
        out("```")
        for line in histogram(fetch_ahead):
            out(line)
        out("```")
        base_samples = (baseline.obs or {}).get("samples", {}) \
            if baseline is not None else {}
        if baseline is not None and not base_samples.get("fetch_ahead"):
            out("")
            out("_Baseline has no critical stream (fetch-ahead is "
                "identically 0)._")
        out("")

    if provenance:
        out("---")
        out("")
        bits = [f"{key} `{provenance[key]}`"
                for key in ("config", "code") if key in provenance]
        run = " ".join(str(provenance[key])
                       for key in ("benchmark", "mode", "scale", "seed")
                       if key in provenance)
        out(f"_Provenance: {run} — " + ", ".join(bits) + "._")
        out("")
    return "\n".join(lines)
