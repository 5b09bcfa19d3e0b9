"""Experiment runner: one benchmark x one mode -> SimResult.

This is the programmatic entry point everything else (examples, the
claim studies) uses. Traces are cached per (name, scale, seed)
so the three modes of a comparison share one functional execution.

``run_benchmark`` is the single-simulation primitive, and
``run_hinted_cdf`` its variant with chain hints preloaded; multi-point
functions (``run_comparison`` here, ``sweep``, the claim studies) go
through :mod:`repro.harness.engine`, which adds process-pool fan-out and
a persistent on-disk result cache. See docs/harness.md.
"""

from __future__ import annotations

import os
import warnings
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Tuple

from ..cdf import CDFPipeline, preload_hints, profile_chains
from ..config import SimConfig
from ..core import BaselinePipeline
from ..energy import EnergyModel
from ..runahead import PREPipeline
from ..stats import SimResult, mark_critical_chains
from ..workloads import DEFAULT_SEED, Workload, get_workload
from .tracestore import get_trace_store

MODES = ("baseline", "cdf", "pre")

#: Trace prefix, in uops, that :func:`run_hinted_cdf` profiles for its
#: chain hints.
HINT_PROFILE_UOPS = 9000

#: Cap on the in-process workload memo (``$REPRO_WORKLOAD_CACHE``).
#: Long sweeps visit many (name, scale, seed) points; without a bound a
#: single worker process would keep every dynamic trace alive at once.
WORKLOAD_CACHE_ENV = "REPRO_WORKLOAD_CACHE"
DEFAULT_WORKLOAD_CACHE = 8

#: In-process LRU of built workloads, most recently used last.
_workload_cache: "OrderedDict[Tuple[str, float, int], Workload]" = \
    OrderedDict()


#: One warning per process for a malformed ``$REPRO_WORKLOAD_CACHE``
#: (the capacity is re-read on every eviction check, so warning on each
#: parse would flood long sweeps).
_warned_bad_workload_cache = False


def workload_cache_capacity() -> int:
    """Entry cap from ``$REPRO_WORKLOAD_CACHE`` (default 8, min 1).

    A non-integer value falls back to the default with a single warning
    rather than failing the run.
    """
    # A warn-once latch, process-local by design.
    global _warned_bad_workload_cache
    raw = os.environ.get(WORKLOAD_CACHE_ENV)
    if raw is None:
        return DEFAULT_WORKLOAD_CACHE
    try:
        return max(1, int(raw))
    except ValueError:
        if not _warned_bad_workload_cache:
            _warned_bad_workload_cache = True
            warnings.warn(
                f"ignoring non-integer {WORKLOAD_CACHE_ENV}={raw!r}; "
                f"using the default capacity of "
                f"{DEFAULT_WORKLOAD_CACHE}", RuntimeWarning,
                stacklevel=2)
        return DEFAULT_WORKLOAD_CACHE


def load_workload(name: str, scale: float = 1.0,
                  seed: int = DEFAULT_SEED) -> Workload:
    """Build (or fetch the cached) workload; its trace is cached too.

    Resolution order: the in-process memo, a small LRU (see
    ``REPRO_WORKLOAD_CACHE``); then the persistent compiled-trace store
    (:mod:`repro.harness.tracestore`), whose program entry restores the
    workload without running its kernel builder; then the kernel
    builder, whose program entry is then stored.  Either way the
    workload is wired to the store, so its dynamic trace is
    deserialized from disk when available and persisted after the first
    functional execution — engine worker processes never re-run the
    functional model for a trace any process has built before.  A
    restored workload builds its memory image only when something reads
    ``workload.memory``: functional execution on a trace miss, or the
    differential oracle at ``verify_level > 0``.
    """
    # Workloads are built deterministically, so sharing one within a
    # worker process cannot change a result.
    key = (name, scale, seed)
    workload = _workload_cache.get(key)
    if workload is not None:
        _workload_cache.move_to_end(key)
        return workload
    store = get_trace_store()
    workload = store.get_workload(name, scale, seed)
    if workload is None:
        workload = get_workload(name, scale=scale, seed=seed)
        store.put_workload(name, scale, seed, workload)
    workload.trace_loader = lambda: store.get(name, scale, seed)
    workload.trace_saver = lambda trace: store.put(name, scale, seed, trace)
    _workload_cache[key] = workload
    while len(_workload_cache) > workload_cache_capacity():
        _workload_cache.popitem(last=False)
    return workload


def config_for_mode(mode: str, **overrides) -> SimConfig:
    if mode == "baseline":
        return SimConfig.baseline(**overrides)
    if mode == "cdf":
        return SimConfig.with_cdf(**overrides)
    if mode == "pre":
        return SimConfig.with_pre(**overrides)
    raise ValueError(f"unknown mode: {mode!r}; known: {MODES}")


def make_pipeline(mode: str, trace, config: SimConfig, workload: Workload):
    if mode == "baseline":
        pipeline = BaselinePipeline(trace, config, benchmark=workload.name)
    elif mode == "cdf":
        pipeline = CDFPipeline(trace, config, workload.program,
                               benchmark=workload.name)
    elif mode == "pre":
        pipeline = PREPipeline(trace, config, workload.program,
                               benchmark=workload.name)
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    if config.verify_level > 0:
        # Imported lazily: at verify_level 0 (every normal run) the
        # verification subsystem is never even imported.
        from ..verify import DifferentialOracle, PipelineVerifier
        oracle = DifferentialOracle(workload.program, workload.memory,
                                    context=workload.name)
        pipeline.attach_verifier(PipelineVerifier(
            level=config.verify_level, oracle=oracle,
            context=workload.name))
    if config.obs_level > 0:
        # Same lazy-import contract as verification: at obs_level 0 the
        # telemetry subsystem is never imported and results stay
        # bit-identical (pinned by tests/memory/test_hierarchy_
        # fingerprints.py and the trace-smoke CI job).
        from ..obs import ObsCollector
        pipeline.attach_observer(ObsCollector(
            level=config.obs_level,
            sample_interval=config.obs_sample_interval))
    return pipeline


def run_benchmark(name: str, mode: str = "baseline", scale: float = 1.0,
                  seed: int = DEFAULT_SEED,
                  config: Optional[SimConfig] = None,
                  obs_level: Optional[int] = None) -> SimResult:
    """Run one benchmark under one mode; returns the SimResult with the
    energy model applied.

    ``obs_level`` (when not None) overrides ``config.obs_level``; at
    level >= 1 the returned result carries the telemetry payload on
    ``result.obs`` (see docs/observability.md).
    """
    _, pipeline = _prepare_run(name, mode, scale, seed, config, obs_level)
    return _finish_run(pipeline)


def run_hinted_cdf(name: str, scale: float = 1.0,
                   seed: int = DEFAULT_SEED,
                   config: Optional[SimConfig] = None) -> SimResult:
    """:func:`run_benchmark` in CDF mode, with profile-guided chain
    hints (:mod:`repro.cdf.static_hints`) preloaded into the critical
    uop cache before the run: the paper's Sec. 6 future work.  The
    hints come from a baseline profile of the trace's first
    :data:`HINT_PROFILE_UOPS` uops."""
    workload, pipeline = _prepare_run(name, "cdf", scale, seed, config)
    preload_hints(pipeline, profile_chains(
        workload.program, workload.trace(), profile_uops=HINT_PROFILE_UOPS))
    return _finish_run(pipeline)


def _prepare_run(name: str, mode: str, scale: float, seed: int,
                 config: Optional[SimConfig],
                 obs_level: Optional[int] = None):
    """The workload and its pipeline, configured but not yet run."""
    workload = load_workload(name, scale, seed)
    trace = workload.trace()
    if config is None:
        config = config_for_mode(mode)
    else:
        # Never mutate the caller's config: it may be shared across
        # workloads (sweeps reuse one config object per point) and the
        # per-workload warmup assignment below would silently leak into
        # subsequent runs.  ``copy()`` round-trips through the dict form
        # (cheaper than deepcopy) and always yields a mutable config,
        # even when the caller's was frozen by the engine.
        config = config.copy()
    config.stats_warmup_uops = workload.warmup_uops()
    if obs_level is not None:
        config.obs_level = obs_level
    return workload, make_pipeline(mode, trace, config, workload)


def _finish_run(pipeline) -> SimResult:
    """Run *pipeline*; attach its telemetry and energy to the result."""
    result = pipeline.run()
    if pipeline.observer is not None:
        result.obs = pipeline.observer.payload()
    EnergyModel(pipeline.config).compute(result)
    return result


def rob_stall_profile(name: str, scale: float = 1.0,
                      seed: int = DEFAULT_SEED) -> float:
    """Fraction of ROB slots holding critical uops during full-window
    stalls on the baseline core (the per-benchmark unit of Fig. 1)."""
    workload = load_workload(name, scale, seed)
    trace = workload.trace()
    config = config_for_mode("baseline")
    pipeline = BaselinePipeline(trace, config, benchmark=name,
                                profile_rob_stalls=True)
    pipeline.run()
    if pipeline.profiler.stall_cycles == 0:
        return 0.0
    roots = list(pipeline.llc_miss_load_seqs)
    roots += pipeline.mispredicted_branch_seqs
    critical = mark_critical_chains(trace, roots)
    return pipeline.profiler.critical_fraction(critical)


def run_comparison(names: Iterable[str], modes: Iterable[str] = MODES,
                   scale: float = 1.0, seed: int = DEFAULT_SEED,
                   engine=None) -> Dict[str, Dict[str, SimResult]]:
    """Run every benchmark under every mode.

    Execution goes through the experiment engine: jobs fan out across
    ``REPRO_JOBS`` worker processes and completed points are memoized in
    the on-disk result cache (see :mod:`repro.harness.engine`).
    """
    from .engine import Job, get_engine
    engine = engine or get_engine()
    names = list(names)
    modes = list(modes)
    jobs = [Job(name, mode, scale=scale, seed=seed)
            for name in names for mode in modes]
    flat = engine.run(jobs)
    results: Dict[str, Dict[str, SimResult]] = {}
    index = 0
    for name in names:
        results[name] = {}
        for mode in modes:
            results[name][mode] = flat[index]
            index += 1
    return results


def speedups(results: Dict[str, Dict[str, SimResult]],
             mode: str) -> Dict[str, float]:
    """Per-benchmark IPC ratio of *mode* over baseline."""
    out = {}
    for name, by_mode in results.items():
        out[name] = by_mode[mode].speedup_over(by_mode["baseline"])
    return out
