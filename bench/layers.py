"""Per-layer metrics from one workload's traced pass.

Every workload reports every name; a layer the workload never reaches
reads 0.  Which end-to-end metric each of these should move, and on
which workload, is tabled in bench/README.md.
"""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Dict, Optional

from tracing import LAYERS, span_seconds
from workloads import MODES, QUICK, parse_engine_line, parse_verdicts

#: Kernels with a per-job throughput metric: the two sim workloads'.
KIPS_KERNELS = QUICK + ("omnetpp",)

#: SimResult counters reported as summed counts.
_COUNTS = {
    "memory.l1d_accesses": "l1d_accesses",
    "memory.llc_accesses": "llc_accesses",
    "memory.llc_miss_loads": "llc_miss_loads",
    "memory.dram_reads": "dram_reads",
    "memory.dram_writes": "dram_writes",
    "frontend.fetch_uops": "fetch_uops",
    "frontend.branch_mispredicts": "branch_mispredicts",
    "frontend.l1i_accesses": "l1i_accesses",
    "cdf.crit_fetch_uops": "crit_fetch_uops",
    "cdf.uop_cache_reads": "uop_cache_reads",
    "runahead.intervals": "runahead_intervals",
    "runahead.uops": "runahead_uops",
    "runahead.prefetches": "runahead_prefetches",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _sim_metrics(traced: dict, uops: Dict[str, int]) -> Dict[str, float]:
    """Counts and host time per simulated tick, from the traced jobs.

    A tick is a cycle the engine stepped through: the measured window's
    ``cycles - idle_skipped_cycles``.  Counters cover the measured
    window (after warm-up); host time covers the whole job.
    """
    out = {f"kips.{name}.{mode}": 0.0
           for name in KIPS_KERNELS for mode in MODES}
    job_s = span_seconds(traced.get("spans", []), "Engine.run")
    sums: Counter = Counter()
    by_mode_s: Counter = Counter()
    by_mode_ticks: Counter = Counter()
    mlps = []
    for entry in traced.get("results") or ():
        result = entry["result"]
        counters = result["counters"]
        name, mode = result["benchmark"], result["mode"]
        seconds = job_s[entry["job"]]
        ticks = result["cycles"] - counters.get("idle_skipped_cycles", 0)
        out[f"kips.{name}.{mode}"] = _ratio(uops[name], seconds) / 1e3
        by_mode_s[mode] += seconds
        by_mode_ticks[mode] += ticks
        mlps.append(result["mlp"])
        sums.update(counters)
        sums["cycles"] += result["cycles"]
        sums["full_window_stall"] += result["full_window_stall_cycles"]
        if mode == "cdf":
            sums["cdf_cycles"] += result["cycles"]
    seconds, ticks = sum(by_mode_s.values()), sum(by_mode_ticks.values())
    out["core.host_us_per_tick"] = 1e6 * _ratio(seconds, ticks)
    for mode in MODES:
        out[f"core.host_us_per_tick.{mode}"] = \
            1e6 * _ratio(by_mode_s[mode], by_mode_ticks[mode])
    out["core.ticked_cycles"] = ticks
    out["core.kcycles_per_s"] = _ratio(sums["cycles"], seconds) / 1e3
    out["core.idle_skipped_frac"] = _ratio(sums["idle_skipped_cycles"],
                                           sums["cycles"])
    out["core.full_window_stall_frac"] = _ratio(sums["full_window_stall"],
                                                sums["cycles"])
    for metric, counter in _COUNTS.items():
        out[metric] = sums[counter]
    out["memory.mlp"] = statistics.fmean(mlps) if mlps else 0.0
    out["cdf.mode_cycles_frac"] = _ratio(sums["cdf_mode_cycles"],
                                         sums["cdf_cycles"])
    out["cdf.violation_rate"] = _ratio(sums["dependence_violations"],
                                       sums["crit_fetch_uops"])
    out["runahead.useful_frac"] = 0.0 if not sums["runahead_prefetches"] \
        else 1 - sums["runahead_wrong_address"] / sums["runahead_prefetches"]
    return out


def layer_metrics(setup: dict, overhead: float, traced: dict,
                  import_s: float) -> Dict[str, float]:
    """Every per-layer metric for one workload.

    *setup* is a set-up child's result, *traced* a traced rep's
    (with its ``stderr`` and, for the CLI, ``stdout``), and *overhead*
    what tracing added to the rep's wall time, as a share.
    """
    out: Dict[str, float] = {}
    samples = traced.get("samples") or {}
    total = sum(samples.values())
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = _ratio(samples.get(layer, 0), total)
    out["trace.overhead_frac"] = overhead

    probes = traced.get("probes") or {}
    probe_uops = probes.get("uops", 0)
    for metric, key in (("traceio.decode_ns_per_uop", "decode_s"),
                        ("tracestore.get_ns_per_uop", "get_s"),
                        ("tracestore.put_ns_per_uop", "put_s")):
        out[metric] = 1e9 * _ratio(probes.get(key, 0.0), probe_uops)
    out["traceio.bytes_per_uop"] = _ratio(probes.get("bytes", 0), probe_uops)

    # A set-up's Workload.trace() runs the functional model, then puts.
    built = setup["traces"]
    uops = sum(entry["uops"] for entry in built.values())
    trace_s = sum(span_seconds(setup["spans"], "Workload.trace").values())
    functional_s = trace_s - out["tracestore.put_ns_per_uop"] * uops / 1e9
    out["isa.functional_kuops_per_s"] = _ratio(uops, functional_s) / 1e3

    uops_by_kernel = {key.split("@")[0]: entry["uops"]
                      for key, entry in built.items()}
    out.update(_sim_metrics(traced, uops_by_kernel))

    engine: Optional[dict] = traced.get("engine") \
        or parse_engine_line(traced.get("stderr", ""))
    engine = engine or {"cache_hits": 0, "executed": 0, "job_s": 0.0,
                        "wall_s": 0.0, "workers": 1}
    for key in ("cache_hits", "executed", "job_s"):
        out[f"engine.{key}"] = engine[key]
    out["engine.engine_wall_s"] = engine["wall_s"]
    out["engine.parallel_eff"] = _ratio(
        engine["job_s"], engine["wall_s"] * engine["workers"])
    cache = traced.get("cache") or {}
    out["engine.cache_get_ms"] = _median(cache.get("get_ms"))
    out["engine.cache_put_ms"] = _median(cache.get("put_ms"))
    out["engine.entry_kb"] = _median(cache.get("entry_kb"))
    out["cli.import_s"] = import_s

    verdicts = parse_verdicts(traced.get("stdout", "")) or {}
    for key in ("match", "within", "diverged"):
        out[f"figures.{key}"] = verdicts.get(key, 0)
    return out
