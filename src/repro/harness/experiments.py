"""Experiment drivers behind the paper-parity claims.

Each ``fig*``/``ablation_*``/``extension_*`` function runs one study of
the paper's evaluation (see DESIGN.md Sec. 3) and returns a plain dict of
results; the claim registry (:mod:`repro.harness.figures`) reduces those
dicts to the scalars it checks. The full-suite comparison runs are
cached per (names, scale, seed) so the Fig. 13-16 claims share one set
of simulations.

Every run that is a plain suite job goes through the engine
(:mod:`repro.harness.engine`), so studies parallelize across
``REPRO_JOBS`` worker processes and completed points are memoized in the
persistent result cache — a warm-cache ``repro-sim figures --full``
rerun simulates only the runs that are not suite jobs: hinted CDF, the
FDIV-chain kernel and the phased programs. Those studies are memoized
in-process instead, so claims that share one run it once.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Sequence, Tuple

from ..config import SimConfig
from ..stats.metrics import geomean
from ..workloads import DEFAULT_SEED, suite_names
from .engine import Job, get_engine
from .runner import (
    config_for_mode,
    load_workload,
    make_pipeline,
    run_comparison,
    speedups,
)

_comparison_cache: Dict[Tuple, Dict] = {}


def get_comparison(names: Optional[Sequence[str]] = None, scale: float = 1.0,
                   seed: int = DEFAULT_SEED):
    """Cached three-core comparison shared by the Fig. 13-16 claims."""
    names = tuple(names or suite_names())
    key = (names, scale, seed)
    if key not in _comparison_cache:
        _comparison_cache[key] = run_comparison(names, scale=scale,
                                                seed=seed)
    return _comparison_cache[key]


# ------------------------------------------------------------------ Fig. 1
def fig01_rob_distribution(names: Optional[Sequence[str]] = None,
                           scale: float = 1.0,
                           seed: int = DEFAULT_SEED) -> Dict[str, float]:
    """Fraction of ROB slots holding *critical* uops during full-window
    stalls on the baseline core (paper Fig. 1: 10%-40% for most
    benchmarks, i.e. the window is mostly non-critical work)."""
    names = list(names or suite_names())
    jobs = [Job(name, "baseline", scale=scale, seed=seed,
                kind="rob_profile") for name in names]
    profiles = get_engine().run(jobs)
    return {name: profile["critical_fraction"]
            for name, profile in zip(names, profiles)}


# ----------------------------------------------------------------- Fig. 17
def fig17_scaling(rob_sizes: Sequence[int] = (192, 256, 352, 512),
                  names: Optional[Sequence[str]] = None, scale: float = 1.0,
                  seed: int = DEFAULT_SEED) -> Dict:
    """IPC and energy of baseline vs CDF cores across ROB sizes, with the
    other window structures scaled proportionately (paper Fig. 17)."""
    names = list(names or suite_names())
    jobs = []
    for rob in rob_sizes:
        for mode in ("baseline", "cdf"):
            for name in names:
                config = config_for_mode(mode)
                config.core = config.core.scaled(rob)
                jobs.append(Job(name, mode, scale=scale, seed=seed,
                                config=config))
    flat = get_engine().run(jobs)
    data: Dict = {"ipc": {}, "energy": {}}
    index = 0
    for rob in rob_sizes:
        for mode in ("baseline", "cdf"):
            results = flat[index:index + len(names)]
            index += len(names)
            data["ipc"][(rob, mode)] = geomean(
                [result.ipc for result in results])
            data["energy"][(rob, mode)] = geomean(
                [result.energy_nj for result in results])
    return data


# --------------------------------------------------------------- ablations
def ablation_critical_branches(names: Optional[Sequence[str]] = None,
                               scale: float = 1.0,
                               seed: int = DEFAULT_SEED) -> Dict:
    """Sec. 4.2: disabling critical-branch marking drops the geomean
    speedup (paper: 6.1% -> 3.8%)."""
    names = list(names or suite_names())
    results = get_comparison(names, scale, seed)
    with_branches = speedups(results, "cdf")
    jobs = []
    for name in names:
        config = config_for_mode("cdf")
        config.cdf.mark_branches_critical = False
        jobs.append(Job(name, "cdf", scale=scale, seed=seed,
                        config=config))
    without = {
        name: result.speedup_over(results[name]["baseline"])
        for name, result in zip(names, get_engine().run(jobs))
    }
    return {
        "with": with_branches,
        "without": without,
        "geomean": {
            "with": geomean(with_branches.values()),
            "without": geomean(without.values()),
        },
    }


def _against_default_cdf(names: Sequence[str], variant: SimConfig,
                         labels: Tuple[str, str], scale: float,
                         seed: int) -> Dict:
    """Speedup over baseline of default CDF and of a *variant* CDF
    config, per kernel and as geomeans, under the two *labels*."""
    names = list(names)
    jobs = []
    for name in names:
        jobs.append(Job(name, "baseline", scale=scale, seed=seed))
        jobs.append(Job(name, "cdf", scale=scale, seed=seed))
        jobs.append(Job(name, "cdf", scale=scale, seed=seed,
                        config=variant))
    flat = get_engine().run(jobs)
    out: Dict[str, Dict[str, float]] = {label: {} for label in labels}
    for position, name in enumerate(names):
        base, default, changed = flat[3 * position:3 * position + 3]
        out[labels[0]][name] = default.speedup_over(base)
        out[labels[1]][name] = changed.speedup_over(base)
    out["geomean"] = {label: geomean(out[label].values())
                      for label in labels}
    return out


def ablation_partitioning(names: Sequence[str],
                          scale: float = 1.0,
                          seed: int = DEFAULT_SEED) -> Dict:
    """Sec. 3.5: dynamic vs static partitioning of the backend."""
    static_config = config_for_mode("cdf")
    static_config.cdf.dynamic_partitioning = False
    return _against_default_cdf(names, static_config,
                                ("dynamic", "static"), scale, seed)


def ablation_thresholds(names: Sequence[str], scale: float = 1.0,
                        seed: int = DEFAULT_SEED) -> Dict:
    """Sec. 3.2: strict-only vs adaptive strict/permissive selection."""
    strict_config = config_for_mode("cdf")
    strict_config.cdf.low_coverage_fraction = 0.0   # never go permissive
    return _against_default_cdf(names, strict_config,
                                ("adaptive", "strict_only"), scale, seed)


def ablation_nc_uop_cache(names: Sequence[str], scale: float = 1.0,
                          seed: int = DEFAULT_SEED) -> Dict:
    """Sec. 3.3: CDF with and without the rejected Non-Critical Uop
    Cache, which gives the non-critical stream its own fetch bandwidth."""
    boosted_config = config_for_mode("cdf")
    boosted_config.cdf.non_critical_uop_cache = True
    return _against_default_cdf(names, boosted_config,
                                ("plain", "nc_cache"), scale, seed)


def ablation_disambiguation(names: Sequence[str], scale: float = 1.0,
                            seed: int = DEFAULT_SEED) -> Dict:
    """Sec. 3.5 context: baseline and CDF under the oracle (default) and
    the conservative memory-disambiguation policies; returns
    ``{name: {(policy, mode): SimResult}}``."""
    names = list(names)
    points = [(policy, mode) for policy in ("oracle", "conservative")
              for mode in ("baseline", "cdf")]
    jobs = []
    for name in names:
        for policy, mode in points:
            config = config_for_mode(mode)
            config.core.memory_disambiguation = policy
            jobs.append(Job(name, mode, scale=scale, seed=seed,
                            config=config))
    flat = iter(get_engine().run(jobs))
    return {name: {point: next(flat) for point in points}
            for name in names}


# -------------------------------------------------------------- extensions
@functools.lru_cache(maxsize=None)
def extension_static_hints(names: Tuple[str, ...], scale: float = 1.0,
                           seed: int = DEFAULT_SEED) -> Dict:
    """Sec. 6 future work: CDF with profile-guided chain hints preloaded
    into the critical uop cache, against hardware-trained CDF; returns
    ``{name: {"baseline"|"cdf"|"hinted": SimResult}}``. The baseline
    and plain CDF runs are engine jobs; the hinted run is not."""
    from ..cdf import CDFPipeline, preload_hints, profile_chains
    jobs = [Job(name, mode, scale=scale, seed=seed)
            for name in names for mode in ("baseline", "cdf")]
    flat = get_engine().run(jobs)
    out = {}
    for position, name in enumerate(names):
        workload = load_workload(name, scale, seed)
        trace = workload.trace()
        hints = profile_chains(workload.program, trace, profile_uops=9000)
        config = config_for_mode("cdf")
        config.stats_warmup_uops = workload.warmup_uops()
        pipeline = CDFPipeline(trace, config, workload.program)
        preload_hints(pipeline, hints)
        base, plain = flat[2 * position:2 * position + 2]
        out[name] = {"baseline": base, "cdf": plain,
                     "hinted": pipeline.run()}
    return out


def fdiv_chain_kernel(iters: int, chain_len: int = 12, noncrit: int = 30):
    """Independent serial-FDIV chains inside a light loop body: a kernel
    bound by long-latency arithmetic, with no cache misses at all."""
    from ..isa import ProgramBuilder
    b = ProgramBuilder()
    b.movi(1, iters)
    b.label("loop")
    b.movi(4, 17)
    for _ in range(chain_len):
        b.fdiv(4, 4, imm=3)
    b.fadd(5, 5, 4)
    for i in range(noncrit):
        b.movi(20 + i % 6, 7 + i)
    b.sub(1, 1, imm=1)
    b.bnez(1, "loop")
    b.halt()
    return b.build()


@functools.lru_cache(maxsize=None)
def extension_longlat(scale: float = 1.0) -> Dict:
    """Sec. 6: criticality beyond loads. Runs the FDIV-chain kernel
    (1000 iterations at scale 1.0, never fewer than 600) on the baseline
    core, on CDF with load criticality only, and on CDF with long-latency
    roots marked critical; returns ``{"baseline"|"loads_only"|
    "longlat": SimResult}``."""
    from ..cdf import CDFPipeline
    from ..core import BaselinePipeline
    from ..isa import execute
    program = fdiv_chain_kernel(max(600, int(1000 * scale)))
    trace = execute(program)
    warmup = len(trace) // 3
    configs = {"baseline": config_for_mode("baseline"),
               "loads_only": config_for_mode("cdf"),
               "longlat": config_for_mode("cdf")}
    configs["longlat"].cdf.mark_longlat_critical = True
    out = {}
    for label, config in configs.items():
        config.stats_warmup_uops = warmup
        out[label] = (BaselinePipeline(trace, config) if label == "baseline"
                      else CDFPipeline(trace, config, program)).run()
    return out


#: Main-memory timing factors the memory-speed claims read: 1.0 is
#: DDR4-2400, 0.25 is four times faster.
MEMORY_SPEED_FACTORS = (1.0, 0.25)


def extension_memory_speed(names: Sequence[str], scale: float = 1.0,
                           seed: int = DEFAULT_SEED) -> Dict:
    """Sec. 2.4 (a): geomean CDF and PRE speedups at nominal and at
    faster main memory; returns ``{factor: {mode: geomean speedup}}``."""
    from .sweep import geomean_speedups, memory_speed_knob, sweep
    return geomean_speedups(sweep(memory_speed_knob, MEMORY_SPEED_FACTORS,
                                  names, scale=scale, seed=seed))


#: L1D MSHR counts the MSHR-scaling claim reads.
MSHR_COUNTS = (4, 16, 32)


def extension_mshr_scaling(names: Sequence[str], scale: float = 1.0,
                           seed: int = DEFAULT_SEED) -> Dict:
    """The miss-buffer ceiling on window expansion: geomean CDF speedup
    per L1D MSHR count; returns ``{count: {"cdf": geomean speedup}}``."""
    from .sweep import geomean_speedups, mshr_knob, sweep
    return geomean_speedups(sweep(mshr_knob, MSHR_COUNTS, names,
                                  modes=("baseline", "cdf"), scale=scale,
                                  seed=seed))


@functools.lru_cache(maxsize=None)
def extension_simpoints(scale: float = 1.0,
                        seed: int = DEFAULT_SEED) -> Dict:
    """Sec. 4.2 'Note on PRE Results': the memory phase alone (the
    single-SimPoint pick), the compute phase alone and the whole
    two-phase program, each under all three cores; returns
    ``{"memory"|"compute"|"whole": {mode: SimResult}}``."""
    from ..workloads.phased import (
        build_phased,
        build_phased_compute_only,
        build_phased_memory_only,
    )
    out = {}
    for label, build in (("memory", build_phased_memory_only),
                         ("compute", build_phased_compute_only),
                         ("whole", build_phased)):
        workload = build(scale=scale, seed=seed)
        trace = workload.trace()
        out[label] = {}
        for mode in ("baseline", "cdf", "pre"):
            config = config_for_mode(mode)
            config.stats_warmup_uops = workload.warmup_uops()
            out[label][mode] = make_pipeline(mode, trace, config,
                                             workload).run()
    return out
