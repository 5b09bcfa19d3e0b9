"""Performance regression harness (``repro-sim perf``).

The simulator's wall-clock behaviour is a deliverable of this repository
(the cycle loop is pure Python; careless edits can double sweep times
without failing a single correctness test), so this module times a
**pinned micro-suite** and emits a stable JSON report — ``BENCH_perf.json``
at the repo root — that successive runs and CI compare against.

Methodology
-----------
All timings run in-process against a *private* trace store (a temp
directory), so the numbers are insensitive to whatever is in the user's
real ``$REPRO_CACHE_DIR``:

``functional_s``
    Best-of-reps wall time to functionally execute every suite workload
    with the trace store disabled — the cost the persistent trace cache
    removes.
``trace_load_s``
    Best-of-reps wall time to deserialize the same traces from the
    store — the cost that replaces it.
``sweep_cold_s``
    One full sweep of the suite against an empty store (functional
    execution + compile + simulate).
``sweep_warm_s``
    Best-of-reps full sweep with the store populated (deserialize +
    simulate).  This is the headline number: it is what an experiment
    sweep costs once traces are compiled.
``sweep_obs_s``
    Best-of-reps warm sweep with ``obs_level=1`` telemetry attached —
    the same work as ``sweep_warm_s`` plus gauge sampling and
    memory-latency attribution.  Guards the obs subsystem's
    "low-overhead" contract (docs/observability.md): the hooks are a
    single ``is not None`` test per site at level 0, and even level 1
    must stay cheap.

Absolute seconds are machine-dependent, so cross-machine comparisons
(CI) use the *derived ratios* — ``trace_compile_speedup``
(functional/trace-load), ``cold_over_warm``, ``warm_over_obs``
(warm/obs-instrumented; ~1.0, drops when telemetry gets expensive) —
which track the architecture of the code rather than the speed of the
host.  Same-machine comparisons (a developer re-running ``repro-sim
perf``) use the raw timings with a noise tolerance band.

This module is on simlint's DET003 wall-clock allowlist: measuring time
is its purpose; simulation results never depend on it.
"""

from __future__ import annotations

import os
import platform
import shutil
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from .engine import Engine, Job

#: Stable report schema version (bump on any shape change).
#: v2: added the obs-overhead column (``sweep_obs_s`` / ``warm_over_obs``).
#: v3: event-vs-reference loop columns and per-variant decode timings.
#: v4: analytic screening-tier columns.
#: v5: one cycle loop and one decoder: the reference-loop, per-variant
#: decode and ``env.engine`` fields are gone.
#: v6: the analytic screening-tier columns and the simulation-only
#: column that fed their ratio are gone.
SCHEMA_VERSION = 6

#: Default report filename, written to the current directory (the repo
#: root in CI and in the documented workflow).
DEFAULT_REPORT = "BENCH_perf.json"

#: Default report filename for ``repro-sim perf --profile``.
PROFILE_REPORT = "BENCH_profile.json"

#: Pipeline methods aggregated into the per-stage profile table.  These
#: are the cycle loop's direct constituents; everything else lands in
#: the flat hotspot list.
STAGE_METHODS: Tuple[str, ...] = (
    "run", "_next_cycle", "_fetch", "_dispatch", "_allocate",
    "_issue", "_issue_load", "_writeback", "_retire",
)

#: The pinned micro-suite: one mode per workload, covering all three
#: pipeline models across six kernels.  Do not casually edit — timings
#: are only comparable across runs of the same suite.
PERF_SUITE: Tuple[Tuple[str, str], ...] = (
    ("astar", "baseline"),
    ("mcf", "cdf"),
    ("milc", "pre"),
    ("bzip", "baseline"),
    ("nab", "cdf"),
    ("lbm", "pre"),
)

PERF_SCALE = 0.3
SMOKE_SCALE = 0.15
DEFAULT_REPS = 3
SMOKE_REPS = 2

#: Same-machine tolerance band for raw timings (fractions, not percent).
DEFAULT_TOLERANCE = 0.30


def _clear_workload_cache() -> None:
    from . import runner
    runner._workload_cache.clear()


def _load_suite_traces(scale: float) -> float:
    """Wall time to materialise every suite workload's trace once."""
    from .runner import load_workload
    _clear_workload_cache()
    start = time.perf_counter()
    for name, _mode in PERF_SUITE:
        load_workload(name, scale).trace()
    return time.perf_counter() - start


def _sweep_once(jobs: List[Job]) -> float:
    """Wall time for one serial, cache-bypassing sweep of *jobs*."""
    _clear_workload_cache()
    engine = Engine(jobs=1, use_cache=False)
    start = time.perf_counter()
    engine.run(jobs)
    return time.perf_counter() - start


def _sweep_direct(scale: float) -> float:
    """Simulation-only suite CPU time: one ``run()`` per job.

    Traces are materialised and the pipeline constructed *outside* the
    timed region, so only the cycle loop is timed (and, under
    :func:`run_profile`, profiled).  Uses CPU time
    (``time.process_time``) rather than wall time to keep unrelated
    machine load out of it.
    """
    from .runner import config_for_mode, load_workload, make_pipeline
    total = 0.0
    for name, mode in PERF_SUITE:
        workload = load_workload(name, scale)
        trace = workload.trace()
        config = config_for_mode(mode)
        config.stats_warmup_uops = workload.warmup_uops()
        pipeline = make_pipeline(mode, trace, config, workload)
        start = time.process_time()
        pipeline.run()
        total += time.process_time() - start
    return total


def run_perfbench(smoke: bool = False, reps: Optional[int] = None,
                  progress: Optional[Callable[[str], None]] = None) -> dict:
    """Run the micro-suite; returns the report dict (see module docs)."""
    from .tracestore import NO_TRACE_CACHE_ENV, reset_trace_store

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    scale = SMOKE_SCALE if smoke else PERF_SCALE
    if reps is None:
        reps = SMOKE_REPS if smoke else DEFAULT_REPS
    jobs = [Job(name, mode, scale=scale) for name, mode in PERF_SUITE]

    saved_cache_dir = os.environ.get("REPRO_CACHE_DIR")
    saved_no_trace = os.environ.get(NO_TRACE_CACHE_ENV)
    private_root = tempfile.mkdtemp(prefix="repro-perfbench-")
    os.environ["REPRO_CACHE_DIR"] = private_root
    os.environ.pop(NO_TRACE_CACHE_ENV, None)
    reset_trace_store()
    try:
        # Functional cost (store disabled): what the trace cache removes.
        os.environ[NO_TRACE_CACHE_ENV] = "1"
        note(f"functional execution x{reps} (store disabled)")
        functional_s = min(_load_suite_traces(scale) for _ in range(reps))
        os.environ.pop(NO_TRACE_CACHE_ENV, None)

        # Cold sweep populates the private store.
        note("cold sweep (functional + compile + simulate)")
        sweep_cold_s = _sweep_once(jobs)

        note(f"trace deserialization x{reps}")
        trace_load_s = min(_load_suite_traces(scale) for _ in range(reps))

        note(f"warm sweep x{reps} (deserialize + simulate)")
        sweep_warm_s = min(_sweep_once(jobs) for _ in range(reps))

        # Same warm sweep with level-1 telemetry attached: the obs
        # overhead column (docs/observability.md).
        from .runner import config_for_mode
        obs_jobs = [Job(name, mode, scale=scale,
                        config=config_for_mode(mode, obs_level=1))
                    for name, mode in PERF_SUITE]
        note(f"warm sweep x{reps} (obs_level=1 telemetry)")
        sweep_obs_s = min(_sweep_once(obs_jobs) for _ in range(reps))
    finally:
        if saved_cache_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_cache_dir
        if saved_no_trace is None:
            os.environ.pop(NO_TRACE_CACHE_ENV, None)
        else:
            os.environ[NO_TRACE_CACHE_ENV] = saved_no_trace
        reset_trace_store()
        shutil.rmtree(private_root, ignore_errors=True)

    return {
        "schema": SCHEMA_VERSION,
        "suite": [list(pair) for pair in PERF_SUITE],
        "scale": scale,
        "reps": reps,
        "smoke": smoke,
        "timings": {
            "functional_s": round(functional_s, 4),
            "trace_load_s": round(trace_load_s, 4),
            "sweep_cold_s": round(sweep_cold_s, 4),
            "sweep_warm_s": round(sweep_warm_s, 4),
            "sweep_obs_s": round(sweep_obs_s, 4),
        },
        "derived": {
            "trace_compile_speedup": round(
                functional_s / trace_load_s, 3) if trace_load_s else 0.0,
            "cold_over_warm": round(
                sweep_cold_s / sweep_warm_s, 3) if sweep_warm_s else 0.0,
            "warm_over_obs": round(
                sweep_warm_s / sweep_obs_s, 3) if sweep_obs_s else 0.0,
        },
        "env": {
            "python": platform.python_version(),
            "platform": sys.platform,
        },
    }


# --------------------------------------------------------------- profile
def run_profile(smoke: bool = False, top: int = 15,
                progress: Optional[Callable[[str], None]] = None) -> dict:
    """cProfile one warm suite sweep; returns the profile report dict.

    Timings taken under the profiler are not comparable to the
    regression columns (instrumentation overhead), so this is a
    *separate* report (``BENCH_profile.json``): a per-stage table over
    :data:`STAGE_METHODS` plus the flat top-``top`` hotspot list.
    """
    import cProfile
    import pstats

    from .runner import load_workload
    from .tracestore import NO_TRACE_CACHE_ENV, reset_trace_store

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    scale = SMOKE_SCALE if smoke else PERF_SCALE
    saved_cache_dir = os.environ.get("REPRO_CACHE_DIR")
    saved_no_trace = os.environ.pop(NO_TRACE_CACHE_ENV, None)
    private_root = tempfile.mkdtemp(prefix="repro-perfprof-")
    os.environ["REPRO_CACHE_DIR"] = private_root
    reset_trace_store()
    try:
        note("populating private trace store")
        _clear_workload_cache()
        for name, _mode in PERF_SUITE:
            load_workload(name, scale).trace()
        note("profiled warm sweep (simulation only)")
        profiler = cProfile.Profile()
        profiler.enable()
        sim_s = _sweep_direct(scale)
        profiler.disable()
    finally:
        if saved_cache_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_cache_dir
        if saved_no_trace is not None:
            os.environ[NO_TRACE_CACHE_ENV] = saved_no_trace
        reset_trace_store()
        shutil.rmtree(private_root, ignore_errors=True)

    stats = pstats.Stats(profiler)
    stages: Dict[str, List[float]] = {}
    hotspots = []
    for (filename, lineno, funcname), row in stats.stats.items():
        _cc, ncalls, tottime, cumtime, _callers = row
        if f"repro{os.sep}" in filename:
            if funcname in STAGE_METHODS:
                agg = stages.setdefault(funcname, [0, 0.0, 0.0])
                agg[0] += ncalls
                agg[1] += tottime
                agg[2] += cumtime
            where = f"{os.path.basename(filename)}:{lineno}({funcname})"
        else:
            where = f"{os.path.basename(filename)}({funcname})"
        hotspots.append((tottime, cumtime, ncalls, where))
    hotspots.sort(reverse=True)

    stage_rows = [
        {"stage": name, "calls": int(agg[0]),
         "tottime_s": round(agg[1], 4), "cumtime_s": round(agg[2], 4)}
        for name, agg in sorted(stages.items(),
                                key=lambda item: -item[1][1])]
    hotspot_rows = [
        {"where": where, "calls": int(ncalls),
         "tottime_s": round(tottime, 4), "cumtime_s": round(cumtime, 4)}
        for tottime, cumtime, ncalls, where in hotspots[:top]]
    return {
        "schema": 1,
        "suite": [list(pair) for pair in PERF_SUITE],
        "scale": scale,
        "smoke": smoke,
        "profiled_sim_s": round(sim_s, 4),
        "stages": stage_rows,
        "hotspots": hotspot_rows,
        "env": {
            "python": platform.python_version(),
            "platform": sys.platform,
        },
    }


# --------------------------------------------------------------- compare
def compare_timings(current: dict, previous: dict,
                    tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Same-machine regression check on raw timings (lower is better).

    Returns human-readable regression lines; empty means within band.
    Only comparable runs are compared (same suite shape and scale).
    """
    if (previous.get("schema") != current.get("schema")
            or previous.get("suite") != current.get("suite")
            or previous.get("scale") != current.get("scale")):
        return []
    regressions = []
    prev_t: Dict[str, float] = previous.get("timings", {})
    for metric, now in current.get("timings", {}).items():
        then = prev_t.get(metric)
        if then and now > then * (1.0 + tolerance):
            regressions.append(
                f"{metric}: {now:.3f}s vs {then:.3f}s "
                f"(+{(now / then - 1.0) * 100:.0f}%, band "
                f"{tolerance * 100:.0f}%)")
    return regressions


def compare_ratios(current: dict, baseline: dict,
                   tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Cross-machine regression check on derived ratios (higher is
    better).  *baseline* maps ratio names to committed floor values."""
    regressions = []
    derived: Dict[str, float] = current.get("derived", {})
    for metric, floor in baseline.items():
        if not isinstance(floor, (int, float)):
            continue
        now = derived.get(metric)
        if now is not None and now < floor * (1.0 - tolerance):
            regressions.append(
                f"{metric}: {now:.3f} vs committed floor {floor:.3f} "
                f"(band {tolerance * 100:.0f}%)")
    return regressions
