"""Metric functions behind the claim registry.

Each public function maps a claim's :class:`Profile` and seed to the
one scalar its :class:`~repro.harness.figures.FigureSpec` checks, in
the spec's unit; a spec holds its function as ``metric``.  They all go
through the studies in :mod:`repro.harness.experiments`, so the engine
fans the simulations out across workers, the persistent result cache
memoizes them across invocations, and the Fig. 13-16 + ablation claims
share one in-process comparison per (names, scale, seed).

These live apart from the registry in :mod:`repro.harness.figures` to
keep each module's compile cost near the package's largest: importing
the package from source (no cached bytecode) holds the biggest
module's AST at its peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from ..energy import EnergyModel
from ..stats.metrics import MetricDomainError, geomean, mean, percent_delta
from ..workloads import PRE_FAVOURABLE
from . import experiments
from .runner import config_for_mode


@dataclass(frozen=True)
class Profile:
    """One execution configuration of a claim's metric."""
    names: Tuple[str, ...]
    scale: float
    rob_sizes: Tuple[int, ...] = ()


Metric = Callable[[Profile, int], float]


def _positive(values: Iterable[float]) -> List[float]:
    """*values* as a list a claim may take the min or max of.

    An empty list, or a zero or negative ratio (a zero-IPC run, a CDF
    that never entered CDF mode), has no honest extreme, so it raises
    :class:`~repro.stats.metrics.MetricDomainError`, as ``geomean``
    does.
    """
    listed = list(values)
    if not listed or min(listed) <= 0:
        raise MetricDomainError(
            f"no extreme of {listed!r}: empty, or a non-positive ratio",
            offending=listed)
    return listed


def _ratio(value: float, base: float) -> float:
    """``value / base``; raises like :func:`_positive` unless both are
    positive."""
    _positive((value, base))
    return value / base


#: SimResult method behind each per-kernel comparison ratio.
_RATIOS = (("speedup", "speedup_over"), ("mlp", "mlp_ratio"),
           ("traffic", "traffic_ratio"), ("energy", "energy_ratio"))


def _comparison_ratios(profile: Profile,
                       seed: int) -> Dict[str, Dict[str, float]]:
    """Per-kernel CDF/PRE ratios over baseline for speedup, MLP,
    traffic, and energy, keyed ``"<metric>_<mode>"``."""
    results = experiments.get_comparison(profile.names, profile.scale,
                                         seed)
    return {
        f"{metric}_{mode}": {
            name: getattr(by_mode[mode], method)(by_mode["baseline"])
            for name, by_mode in results.items()}
        for mode in ("cdf", "pre") for metric, method in _RATIOS}


def _comparison_geomeans(profile: Profile, seed: int) -> Dict[str, float]:
    """Geomean CDF/PRE ratios for speedup, MLP, traffic, and energy."""
    return {key: geomean(ratios.values())
            for key, ratios in _comparison_ratios(profile, seed).items()}


def _comparison_extreme(key: str,
                        pick: Callable[[List[float]], float]) -> Metric:
    """A metric for the *pick* (min or max) kernel's *key* ratio, as a
    percent delta."""
    def extract(profile: Profile, seed: int) -> float:
        ratios = _comparison_ratios(profile, seed)[key]
        return percent_delta(pick(_positive(ratios.values())))
    return extract


def _stalling_fractions(profile: Profile, seed: int) -> Dict[str, float]:
    """Fig. 1's critical ROB share of each kernel that stalled."""
    fractions = experiments.fig01_rob_distribution(
        profile.names, profile.scale, seed)
    return {name: frac for name, frac in fractions.items() if frac > 0}


def _stencil_split(profile: Profile,
                   seed: int) -> Tuple[List[float], List[float]]:
    """Stalling kernels' critical shares: the dense-stencil family's,
    then the other kernels'."""
    stalling = _stalling_fractions(profile, seed)
    return ([f for name, f in stalling.items() if name in PRE_FAVOURABLE],
            [f for name, f in stalling.items()
             if name not in PRE_FAVOURABLE])


def fig1_critical_fraction(profile: Profile, seed: int) -> float:
    return 100.0 * mean(_stalling_fractions(profile, seed).values())


def fig1_stalling_kernels(profile: Profile, seed: int) -> float:
    return float(len(_stalling_fractions(profile, seed)))


def fig1_sparse_share(profile: Profile, seed: int) -> float:
    _, sparse = _stencil_split(profile, seed)
    return 100.0 * mean(_positive(sparse))


def fig1_stencil_gap(profile: Profile, seed: int) -> float:
    dense, sparse = _stencil_split(profile, seed)
    return 100.0 * (max(_positive(dense)) - max(_positive(sparse)))


def fig13_cdf_uplift(profile: Profile, seed: int) -> float:
    return percent_delta(_comparison_geomeans(profile, seed)["speedup_cdf"])


def fig13_pre_uplift(profile: Profile, seed: int) -> float:
    return percent_delta(_comparison_geomeans(profile, seed)["speedup_pre"])


def fig13_cdf_margin(profile: Profile, seed: int) -> float:
    data = _comparison_geomeans(profile, seed)
    return (percent_delta(data["speedup_cdf"])
            - percent_delta(data["speedup_pre"]))


def fig14_cdf_mlp(profile: Profile, seed: int) -> float:
    return _comparison_geomeans(profile, seed)["mlp_cdf"]


def fig14_pre_mlp(profile: Profile, seed: int) -> float:
    return _comparison_geomeans(profile, seed)["mlp_pre"]


def fig14_pre_excess(profile: Profile, seed: int) -> float:
    data = _comparison_geomeans(profile, seed)
    return data["mlp_pre"] - data["mlp_cdf"]


def _useful_mlp(ratios: Dict[str, Dict[str, float]], mode: str) -> float:
    """Share of *mode*'s MLP gain that became speedup, over the kernels
    whose MLP it raised by 10% or more."""
    raised = {name: mlp for name, mlp in ratios[f"mlp_{mode}"].items()
              if mlp >= 1.10}
    if not raised:
        raise MetricDomainError(f"{mode} raised no kernel's MLP by 10%")
    converted = sum(max(0.0, ratios[f"speedup_{mode}"][name] - 1.0)
                    for name in raised)
    return converted / sum(mlp - 1.0 for mlp in raised.values())


def fig14_useful_margin(profile: Profile, seed: int) -> float:
    ratios = _comparison_ratios(profile, seed)
    return _useful_mlp(ratios, "cdf") - _useful_mlp(ratios, "pre")


def fig14_pre_inflated(profile: Profile, seed: int) -> float:
    ratios = _comparison_ratios(profile, seed)
    return float(sum(1 for name, mlp in ratios["mlp_pre"].items()
                     if mlp > 1.3 and ratios["speedup_pre"][name] < 1.02))


def fig15_cdf_traffic(profile: Profile, seed: int) -> float:
    return percent_delta(_comparison_geomeans(profile, seed)["traffic_cdf"])


def fig15_pre_vs_cdf(profile: Profile, seed: int) -> float:
    data = _comparison_geomeans(profile, seed)
    return percent_delta(data["traffic_pre"] / data["traffic_cdf"])


fig15_cdf_worst_traffic = _comparison_extreme("traffic_cdf", max)
fig15_pre_worst_traffic = _comparison_extreme("traffic_pre", max)


def fig16_cdf_energy(profile: Profile, seed: int) -> float:
    return percent_delta(_comparison_geomeans(profile, seed)["energy_cdf"])


def fig16_pre_energy(profile: Profile, seed: int) -> float:
    return percent_delta(_comparison_geomeans(profile, seed)["energy_pre"])


def fig16_cdf_vs_pre(profile: Profile, seed: int) -> float:
    data = _comparison_geomeans(profile, seed)
    return percent_delta(data["energy_cdf"] / data["energy_pre"])


fig16_cdf_best_energy = _comparison_extreme("energy_cdf", min)


def _fig17(profile: Profile, seed: int) -> Dict:
    return experiments.fig17_scaling(rob_sizes=profile.rob_sizes,
                                     names=profile.names,
                                     scale=profile.scale, seed=seed)


def fig17_scaling(profile: Profile, seed: int) -> float:
    ipc = _fig17(profile, seed)["ipc"]
    return ipc[(352, "cdf")] / ipc[(512, "baseline")]


def fig17_base_gain(profile: Profile, seed: int) -> float:
    ipc = _fig17(profile, seed)["ipc"]
    return ipc[(512, "baseline")] / ipc[(192, "baseline")]


def fig17_diminishing(profile: Profile, seed: int) -> float:
    """The baseline's 192->256 IPC step over its 352->512 step."""
    ipc = _fig17(profile, seed)["ipc"]
    return ((ipc[(256, "baseline")] / ipc[(192, "baseline")])
            / (ipc[(512, "baseline")] / ipc[(352, "baseline")]))


def fig17_cdf_every_rob(profile: Profile, seed: int) -> float:
    ipc = _fig17(profile, seed)["ipc"]
    return min(ipc[(rob, "cdf")] / ipc[(rob, "baseline")]
               for rob in profile.rob_sizes)


def fig17_cdf_gain(profile: Profile, seed: int) -> float:
    ipc = _fig17(profile, seed)["ipc"]
    return ipc[(352, "cdf")] / ipc[(352, "baseline")]


def fig17_energy(profile: Profile, seed: int) -> float:
    energy = _fig17(profile, seed)["energy"]
    return energy[(512, "baseline")] / energy[(352, "cdf")]


def _margin(data: Dict, first: str, second: str) -> float:
    """Geomean speedup of arm *first* minus arm *second*, in pp."""
    return (percent_delta(data["geomean"][first])
            - percent_delta(data["geomean"][second]))


def ablation_branches_drop(profile: Profile, seed: int) -> float:
    data = experiments.ablation_critical_branches(
        profile.names, profile.scale, seed)
    return _margin(data, "with", "without")


def ablation_branches_off(profile: Profile, seed: int) -> float:
    data = experiments.ablation_critical_branches(
        profile.names, profile.scale, seed)
    return percent_delta(data["geomean"]["without"])


def partitioning_margin(profile: Profile, seed: int) -> float:
    data = experiments.ablation_partitioning(
        profile.names, profile.scale, seed)
    return _margin(data, "dynamic", "static")


def partitioning_uplift(profile: Profile, seed: int) -> float:
    data = experiments.ablation_partitioning(
        profile.names, profile.scale, seed)
    return percent_delta(data["geomean"]["dynamic"])


def partitioning_worst_kernel(profile: Profile, seed: int) -> float:
    data = experiments.ablation_partitioning(
        profile.names, profile.scale, seed)
    return min(100.0 * (dynamic - static) for dynamic, static in zip(
        _positive(data["dynamic"].values()),
        _positive(data["static"].values())))


def thresholds_margin(profile: Profile, seed: int) -> float:
    data = experiments.ablation_thresholds(
        profile.names, profile.scale, seed)
    return _margin(data, "adaptive", "strict_only")


def thresholds_uplift(profile: Profile, seed: int) -> float:
    data = experiments.ablation_thresholds(
        profile.names, profile.scale, seed)
    return percent_delta(data["geomean"]["adaptive"])


def nc_uop_cache(profile: Profile, seed: int) -> float:
    data = experiments.ablation_nc_uop_cache(
        profile.names, profile.scale, seed)
    return _margin(data, "nc_cache", "plain")


def _disambiguation(profile: Profile, seed: int) -> List[Dict]:
    return list(experiments.ablation_disambiguation(
        profile.names, profile.scale, seed).values())


def disambiguation_base(profile: Profile, seed: int) -> float:
    return max(_ratio(row[("conservative", "baseline")].ipc,
                      row[("oracle", "baseline")].ipc)
               for row in _disambiguation(profile, seed))


def disambiguation_cdf(profile: Profile, seed: int) -> float:
    return min(_ratio(row[("conservative", "cdf")].ipc,
                      row[("conservative", "baseline")].ipc)
               for row in _disambiguation(profile, seed))


def disambiguation_retired(profile: Profile, seed: int) -> float:
    return float(max(abs(row[("conservative", "cdf")].retired_uops
                         - row[("oracle", "baseline")].retired_uops)
                     for row in _disambiguation(profile, seed)))


def _hints(profile: Profile, seed: int) -> List[Dict]:
    return list(experiments.extension_static_hints(
        profile.names, profile.scale, seed).values())


def hints_margin(profile: Profile, seed: int) -> float:
    runs = _hints(profile, seed)
    return _margin({"geomean": {
        arm: geomean(run[arm].speedup_over(run["baseline"]) for run in runs)
        for arm in ("hinted", "cdf")}}, "hinted", "cdf")


def hints_residency(profile: Profile, seed: int) -> float:
    return min(_ratio(run["hinted"].counters["cdf_mode_cycles"],
                      run["cdf"].counters["cdf_mode_cycles"])
               for run in _hints(profile, seed))


def _longlat_uplift(arm: str) -> Metric:
    """A metric for CDF arm *arm*'s percent gain on the profile's one
    kernel (the FDIV-chain kernel)."""
    def extract(profile: Profile, seed: int) -> float:
        (runs,) = experiments.extension_longlat(
            profile.names, profile.scale, seed).values()
        return percent_delta(_ratio(runs[arm].ipc, runs["baseline"].ipc))
    return extract


longlat_loads_only = _longlat_uplift("loads_only")
longlat_uplift = _longlat_uplift("longlat")


def _memory_speed(profile: Profile, seed: int) -> Dict:
    return experiments.extension_memory_speed(profile.names, profile.scale,
                                              seed)


def _memory_nominal(mode: str) -> Metric:
    """A metric for *mode*'s geomean gain at nominal memory timing."""
    def extract(profile: Profile, seed: int) -> float:
        return percent_delta(_memory_speed(profile, seed)[1.0][mode])
    return extract


memory_cdf_nominal = _memory_nominal("cdf")
memory_pre_nominal = _memory_nominal("pre")


def memory_pre_erodes(profile: Profile, seed: int) -> float:
    data = _memory_speed(profile, seed)
    return 100.0 * (data[1.0]["pre"] - data[0.25]["pre"])


def memory_pre_loses_more(profile: Profile, seed: int) -> float:
    data = _memory_speed(profile, seed)
    pre_loss = data[1.0]["pre"] - data[0.25]["pre"]
    cdf_loss = data[1.0]["cdf"] - data[0.25]["cdf"]
    return 100.0 * (pre_loss - cdf_loss)


def mshr_scaling(profile: Profile, seed: int) -> float:
    data = experiments.extension_mshr_scaling(
        profile.names, profile.scale, seed)
    return 100.0 * (min(data[16]["cdf"], data[32]["cdf"]) - data[4]["cdf"])


def _simpoints(profile: Profile, seed: int) -> Dict[str, Dict[str, float]]:
    """CDF and PRE speedups on each phased program (Sec. 4.2 note):
    ``phased_memory``, the memory phase alone (the single-SimPoint
    pick); ``phased_compute``, the compute phase alone; and
    ``phased``, the whole two-phase program."""
    results = experiments.get_comparison(profile.names, profile.scale,
                                         seed)
    return {name: {mode: _ratio(runs[mode].ipc, runs["baseline"].ipc)
                   for mode in ("cdf", "pre")}
            for name, runs in results.items()}


def _simpoint_inflation(mode: str) -> Metric:
    """A metric for *mode*'s memory-phase gain minus its whole-program
    gain, in pp."""
    def extract(profile: Profile, seed: int) -> float:
        data = _simpoints(profile, seed)
        return 100.0 * (data["phased_memory"][mode] - data["phased"][mode])
    return extract


def _simpoint_compute(mode: str) -> Metric:
    """A metric for *mode*'s percent gain on the compute phase."""
    def extract(profile: Profile, seed: int) -> float:
        data = _simpoints(profile, seed)
        return percent_delta(data["phased_compute"][mode])
    return extract


simpoint_pre_inflation = _simpoint_inflation("pre")
simpoint_cdf_inflation = _simpoint_inflation("cdf")
simpoint_compute_pre = _simpoint_compute("pre")
simpoint_compute_cdf = _simpoint_compute("cdf")


def simpoint_pre_between(profile: Profile, seed: int) -> float:
    """Headroom, in pp, of whole-program PRE inside [compute phase
    - 2pp, memory phase]; negative when it falls outside."""
    pre = {name: data["pre"]
           for name, data in _simpoints(profile, seed).items()}
    return 100.0 * min(pre["phased"] - (pre["phased_compute"] - 0.02),
                       pre["phased_memory"] - pre["phased"])


def table1_area(profile: Profile, seed: int) -> float:
    return 100.0 * EnergyModel(config_for_mode("cdf")).cdf_area_overhead()
