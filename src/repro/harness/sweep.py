"""Parameter-sweep utilities.

Generic machinery for sensitivity studies: sweep one knob across a list
of values, run a set of benchmarks under selected modes at each point,
and collect geomean speedups. Used by the memory-speed and MSHR-scaling
claims (:mod:`repro.harness.experiments`) and available to users for
their own what-if experiments.

Sweeps execute through :mod:`repro.harness.engine`: every (value, mode,
benchmark) point becomes one engine job, so sweeps parallelize under
``REPRO_JOBS`` and resume from the persistent result cache. See
docs/harness.md and examples/parallel_sweep.py.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Sequence

from ..config import SimConfig
from ..stats.metrics import geomean
from ..workloads import DEFAULT_SEED
from .engine import Job, get_engine
from .runner import config_for_mode

#: A knob maps (config, sweep value) to a *new* SimConfig — knobs never
#: mutate their argument (CFG001: the caller may share it across jobs).
Knob = Callable[[SimConfig, object], SimConfig]


def sweep(knob: Knob, values: Sequence, names: Sequence[str],
          modes: Sequence[str] = ("baseline", "cdf", "pre"),
          scale: float = 0.5, seed: int = DEFAULT_SEED,
          engine=None) -> Dict:
    """Run the sweep; returns {value: {mode: {benchmark: SimResult}}}."""
    engine = engine or get_engine()
    jobs = []
    for value in values:
        for mode in modes:
            for name in names:
                config = knob(config_for_mode(mode), value)
                jobs.append(Job(name, mode, scale=scale, seed=seed,
                                config=config))
    flat = engine.run(jobs)
    results: Dict = {}
    index = 0
    for value in values:
        results[value] = {}
        for mode in modes:
            results[value][mode] = {}
            for name in names:
                results[value][mode][name] = flat[index]
                index += 1
    return results


def geomean_speedups(results: Dict,
                     over_mode: str = "baseline") -> Dict:
    """Reduce sweep results to {value: {mode: geomean speedup}}.

    A zero-IPC point raises
    :class:`~repro.stats.metrics.MetricDomainError` instead of being
    dropped from its geomean."""
    out: Dict = {}
    for value, by_mode in results.items():
        base = by_mode[over_mode]
        out[value] = {}
        for mode, by_name in by_mode.items():
            if mode == over_mode:
                continue
            ratios = [by_name[name].speedup_over(base[name])
                      for name in by_name]
            out[value][mode] = geomean(ratios)
    return out


# ------------------------------------------------------------ common knobs
def memory_speed_knob(config: SimConfig, factor: float) -> SimConfig:
    """Scale main-memory latency: factor 1.0 is DDR4-2400; 0.5 halves
    the core-visible timing parameters (a 'better memory system')."""
    config = copy.deepcopy(config)
    dram = config.dram
    dram.trp = max(1, int(dram.trp * factor))
    dram.tcl = max(1, int(dram.tcl * factor))
    dram.trcd = max(1, int(dram.trcd * factor))
    dram.burst_core_cycles = max(2, int(dram.burst_core_cycles * factor))
    return config


def mshr_knob(config: SimConfig, count: int) -> SimConfig:
    """Set the L1D/LLC MSHR counts (the hard MLP ceiling)."""
    config = copy.deepcopy(config)
    config.l1d.mshrs = count
    config.llc.mshrs = 2 * count
    return config


def llc_size_knob(config: SimConfig, size_bytes: int) -> SimConfig:
    """Set the LLC capacity (sets scale with it; ways fixed)."""
    config = copy.deepcopy(config)
    config.llc.size_bytes = size_bytes
    return config


#: Named knobs for the CLI (``repro-sim sweep --knob``).
KNOBS: Dict[str, Knob] = {
    "memory_speed": memory_speed_knob,
    "mshrs": mshr_knob,
    "llc_size": llc_size_knob,
}

#: Default ``repro-sim sweep`` grid per knob: five values spanning each
#: knob's range, small enough for a CI-sized run.
DEFAULT_VALUES: Dict[str, Sequence] = {
    "memory_speed": (0.5, 0.75, 1.0, 1.5, 2.0),
    "mshrs": (1, 2, 4, 8, 16),
    "llc_size": (128 * 1024, 256 * 1024, 512 * 1024,
                 1024 * 1024, 4096 * 1024),
}

#: Default kernels and modes at each sweep point: three kernels spanning
#: the bottleneck space (latency-bound pointer chasing, dependent
#: chains, prefetch-friendly streaming), and CDF against its baseline.
DEFAULT_NAMES = ("astar", "mcf", "lbm")
DEFAULT_MODES = ("baseline", "cdf")
