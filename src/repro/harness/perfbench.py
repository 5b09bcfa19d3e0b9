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
``sweep_sim_s``
    Best-of-reps simulation-only *CPU* time (traces pre-loaded,
    pipeline construction excluded) for the suite; CPU rather than
    wall time keeps background load out of ``screen_speedup``.
``analytic_profile_s`` / ``analytic_per_config_s``
    The analytic screening tier (docs/analytic.md): best-of-reps CPU
    time to build every suite :class:`~repro.analytic.TraceProfile`,
    and the mean model-evaluation time per (kernel, config) point.

Absolute seconds are machine-dependent, so cross-machine comparisons
(CI) use the *derived ratios* — ``trace_compile_speedup``
(functional/trace-load), ``cold_over_warm``, ``warm_over_obs``
(warm/obs-instrumented; ~1.0, drops when telemetry gets expensive),
and ``screen_speedup`` (simulation time over the analytic tier's
profile+score time for the same suite; the screening tier's reason to
exist — its committed floor is 50x) — which track the architecture of
the code rather than the speed of the host.  Same-machine comparisons
(a developer re-running ``repro-sim perf``) use the raw timings with a
noise tolerance band.

This module is on simlint's DET003 wall-clock allowlist: measuring time
is its purpose; simulation results never depend on it.
"""

from __future__ import annotations

import json
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
#: v4: analytic fast-tier columns (``analytic_profile_s`` /
#: ``analytic_per_config_s`` / ``screen_speedup``); see docs/analytic.md.
#: v5: one cycle loop and one decoder: ``sweep_event_s`` became
#: ``sweep_sim_s``; the reference-loop, per-variant decode and
#: ``env.engine`` fields are gone.
SCHEMA_VERSION = 5

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
    "_issue", "_issue_load", "_writeback", "_complete_at", "_retire",
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
    timed region, so only the cycle loop is timed.  Uses CPU time
    (``time.process_time``) rather than wall time to keep unrelated
    machine load out of the ratios built on it.
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


def _analytic_timing(scale: float,
                     reps: int) -> Tuple[float, float, float]:
    """``(analytic_profile_s, analytic_suite_s, analytic_per_config_s)``.

    Times the analytic fast tier over the same suite the
    ``sweep_sim_s`` column simulates: best-of-reps CPU time to build
    every :class:`~repro.analytic.TraceProfile` (traces pre-loaded, as
    in a warm screening sweep) and to score every ``(kernel, mode)``
    point.  ``analytic_suite_s`` — grid-amortized profile build plus
    one evaluation per point — is the screening tier's per-grid-point
    cost for the whole suite, and ``sweep_sim_s / analytic_suite_s``
    is the committed ``screen_speedup`` ratio.  Model evaluations are microseconds, so
    the per-config column is measured over many repeated evaluations.
    """
    from ..analytic import AnalyticModel, TraceProfile
    from .runner import config_for_mode, load_workload
    from .sweep import QUICK_SCREEN_SWEEPS

    # A screening sweep builds each profile once and scores it at every
    # grid point, so the suite cost charges each profile 1/grid of its
    # build time — the pinned QUICK grids set the amortization.
    grid = min(len(values) for values in QUICK_SCREEN_SWEEPS.values())

    traces = {}
    for name, _mode in PERF_SUITE:
        traces[name] = load_workload(name, scale).trace()
    configs = [(name, config_for_mode(mode)) for name, mode in PERF_SUITE]
    model = AnalyticModel()
    evals_per_rep = 50

    profile_s = suite_eval_s = None
    for _ in range(reps):
        start = time.process_time()
        profiles = {name: TraceProfile.from_trace(trace, name=name)
                    for name, trace in traces.items()}
        elapsed = time.process_time() - start
        profile_s = elapsed if profile_s is None \
            else min(profile_s, elapsed)

        start = time.process_time()
        for _ in range(evals_per_rep):
            for name, config in configs:
                model.predict(profiles[name], config)
        elapsed = (time.process_time() - start) / evals_per_rep
        suite_eval_s = elapsed if suite_eval_s is None \
            else min(suite_eval_s, elapsed)

    per_config_s = suite_eval_s / len(PERF_SUITE)
    return profile_s, profile_s / grid + suite_eval_s, per_config_s


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

        note(f"cycle loop x{reps} (sim only)")
        sweep_sim_s = min(_sweep_direct(scale) for _ in range(reps))

        # Analytic fast tier over the same suite (docs/analytic.md).
        note(f"analytic fast tier x{reps} (profiles + model evals)")
        analytic_profile_s, analytic_suite_s, analytic_per_config_s = \
            _analytic_timing(scale, reps)
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
            "sweep_sim_s": round(sweep_sim_s, 4),
            "analytic_profile_s": round(analytic_profile_s, 4),
            "analytic_per_config_s": round(analytic_per_config_s, 6),
        },
        "derived": {
            "trace_compile_speedup": round(
                functional_s / trace_load_s, 3) if trace_load_s else 0.0,
            "cold_over_warm": round(
                sweep_cold_s / sweep_warm_s, 3) if sweep_warm_s else 0.0,
            "warm_over_obs": round(
                sweep_warm_s / sweep_obs_s, 3) if sweep_obs_s else 0.0,
            "screen_speedup": round(
                sweep_sim_s / analytic_suite_s,
                3) if analytic_suite_s else 0.0,
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
