"""Experiment drivers behind the paper-parity claims.

Each ``fig*``/``ablation_*``/``extension_*`` function runs one study of
the paper's evaluation (see DESIGN.md Sec. 3) and returns a plain dict of
results; the claim registry (:mod:`repro.harness.figures`) reduces those
dicts to the scalars it checks.

Every simulation a study needs is an engine job
(:mod:`repro.harness.engine`): a study builds a job list, runs it and
reassembles the results.  So studies parallelize across ``REPRO_JOBS``
worker processes, and every completed point is memoized in the
persistent result cache: a warm-cache ``repro-sim figures --full``
rerun simulates nothing.  The three-core comparison
(:func:`get_comparison`) and the hint and long-latency studies are also
memoized in-process, so the claims that share one of them run it once
per process, with or without the result cache.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Sequence, Tuple

from ..config import SimConfig
from ..stats.metrics import geomean
from ..workloads import DEFAULT_SEED, suite_names
from .engine import Job, get_engine
from .runner import config_for_mode, run_comparison, speedups

_comparison_cache: Dict[Tuple, Dict] = {}


def get_comparison(names: Optional[Sequence[str]] = None, scale: float = 1.0,
                   seed: int = DEFAULT_SEED):
    """Cached three-core comparison shared by the Fig. 13-16 claims
    and, on the phased programs, the Sec. 4.2 SimPoint claims."""
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


def _run_arms(names: Sequence[str],
              arms: Dict[object, Tuple[str, Optional[SimConfig], str]],
              scale: float, seed: int) -> Dict:
    """Run each of *names* under every arm of *arms*, which maps a label
    to a job's ``(mode, config, kind)``; returns ``{name: {label:
    result}}``."""
    jobs = [Job(name, mode, scale=scale, seed=seed, config=config,
                kind=kind)
            for name in names for mode, config, kind in arms.values()]
    flat = iter(get_engine().run(jobs))
    return {name: {label: next(flat) for label in arms} for name in names}


def _against_default_cdf(names: Sequence[str], variant: SimConfig,
                         labels: Tuple[str, str], scale: float,
                         seed: int) -> Dict:
    """Speedup over baseline of default CDF and of a *variant* CDF
    config, per kernel and as geomeans, under the two *labels*."""
    runs = _run_arms(names, {"base": ("baseline", None, "sim"),
                             labels[0]: ("cdf", None, "sim"),
                             labels[1]: ("cdf", variant, "sim")},
                     scale, seed)
    out: Dict[str, Dict[str, float]] = {
        label: {name: run[label].speedup_over(run["base"])
                for name, run in runs.items()}
        for label in labels}
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
    arms = {}
    for policy in ("oracle", "conservative"):
        for mode in ("baseline", "cdf"):
            config = config_for_mode(mode)
            config.core.memory_disambiguation = policy
            arms[(policy, mode)] = (mode, config, "sim")
    return _run_arms(names, arms, scale, seed)


# -------------------------------------------------------------- extensions
@functools.lru_cache(maxsize=None)
def extension_static_hints(names: Tuple[str, ...], scale: float = 1.0,
                           seed: int = DEFAULT_SEED) -> Dict:
    """Sec. 6 future work: CDF with profile-guided chain hints preloaded
    into the critical uop cache (``"hinted_cdf"`` jobs), against
    hardware-trained CDF; returns ``{name: {"baseline"|"cdf"|"hinted":
    SimResult}}``."""
    return _run_arms(names, {"baseline": ("baseline", None, "sim"),
                             "cdf": ("cdf", None, "sim"),
                             "hinted": ("cdf", None, "hinted_cdf")},
                     scale, seed)


@functools.lru_cache(maxsize=None)
def extension_longlat(names: Tuple[str, ...], scale: float = 1.0,
                      seed: int = DEFAULT_SEED) -> Dict:
    """Sec. 6: criticality beyond loads. Runs each of *names* (the
    FDIV-chain kernel, :mod:`repro.workloads.fdiv_chain`) on the
    baseline core, on CDF with load criticality only, and on CDF with
    long-latency roots marked critical; returns ``{name:
    {"baseline"|"loads_only"|"longlat": SimResult}}``."""
    longlat = config_for_mode("cdf")
    longlat.cdf.mark_longlat_critical = True
    return _run_arms(names, {"baseline": ("baseline", None, "sim"),
                             "loads_only": ("cdf", None, "sim"),
                             "longlat": ("cdf", longlat, "sim")},
                     scale, seed)


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
