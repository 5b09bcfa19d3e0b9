"""Metric extractors behind the claim registry.

Every runner maps a claim's :class:`Profile` and seed to the one scalar
its :class:`~repro.harness.figures.FigureSpec` checks, in the spec's
unit.  They all go through the studies in
:mod:`repro.harness.experiments`, so the engine fans the simulations
out across workers, the persistent result cache memoizes them across
invocations, and the Fig. 13-16 + ablation claims share one in-process
comparison per (names, scale, seed).

These live apart from the registry in :mod:`repro.harness.figures` to
keep each module's compile cost near the package's largest: importing
the package from source (no cached bytecode) holds the biggest
module's AST at its peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from ..stats.metrics import MetricDomainError, geomean, mean, percent_delta
from ..workloads import PRE_FAVOURABLE


@dataclass(frozen=True)
class Profile:
    """One execution configuration of a claim's metric."""
    names: Tuple[str, ...]
    scale: float
    rob_sizes: Tuple[int, ...] = ()


Runner = Callable[[Profile, int], float]


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
    from .experiments import get_comparison
    results = get_comparison(profile.names, profile.scale, seed)
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
                        pick: Callable[[List[float]], float]) -> Runner:
    """A runner for the *pick* (min or max) kernel's *key* ratio, as a
    percent delta."""
    def extract(profile: Profile, seed: int) -> float:
        ratios = _comparison_ratios(profile, seed)[key]
        return percent_delta(pick(_positive(ratios.values())))
    return extract


def _stalling_fractions(profile: Profile, seed: int) -> Dict[str, float]:
    """Fig. 1's critical ROB share of each kernel that stalled."""
    from .experiments import fig01_rob_distribution
    fractions = fig01_rob_distribution(profile.names, profile.scale, seed)
    return {name: frac for name, frac in fractions.items() if frac > 0}


def _stencil_split(profile: Profile,
                   seed: int) -> Tuple[List[float], List[float]]:
    """Stalling kernels' critical shares: the dense-stencil family's,
    then the other kernels'."""
    stalling = _stalling_fractions(profile, seed)
    return ([f for name, f in stalling.items() if name in PRE_FAVOURABLE],
            [f for name, f in stalling.items()
             if name not in PRE_FAVOURABLE])


def _run_fig1(profile: Profile, seed: int) -> float:
    return 100.0 * mean(_stalling_fractions(profile, seed).values())


def _run_fig1_stalling(profile: Profile, seed: int) -> float:
    return float(len(_stalling_fractions(profile, seed)))


def _run_fig1_sparse_share(profile: Profile, seed: int) -> float:
    _, sparse = _stencil_split(profile, seed)
    return 100.0 * mean(_positive(sparse))


def _run_fig1_stencil_gap(profile: Profile, seed: int) -> float:
    dense, sparse = _stencil_split(profile, seed)
    return 100.0 * (max(_positive(dense)) - max(_positive(sparse)))


def _run_fig13_cdf(profile: Profile, seed: int) -> float:
    return percent_delta(_comparison_geomeans(profile, seed)["speedup_cdf"])


def _run_fig13_pre(profile: Profile, seed: int) -> float:
    return percent_delta(_comparison_geomeans(profile, seed)["speedup_pre"])


def _run_fig13_margin(profile: Profile, seed: int) -> float:
    data = _comparison_geomeans(profile, seed)
    return (percent_delta(data["speedup_cdf"])
            - percent_delta(data["speedup_pre"]))


def _run_fig14_cdf(profile: Profile, seed: int) -> float:
    return _comparison_geomeans(profile, seed)["mlp_cdf"]


def _run_fig14_pre(profile: Profile, seed: int) -> float:
    return _comparison_geomeans(profile, seed)["mlp_pre"]


def _run_fig14_pre_excess(profile: Profile, seed: int) -> float:
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


def _run_fig14_useful_margin(profile: Profile, seed: int) -> float:
    ratios = _comparison_ratios(profile, seed)
    return _useful_mlp(ratios, "cdf") - _useful_mlp(ratios, "pre")


def _run_fig14_pre_inflated(profile: Profile, seed: int) -> float:
    ratios = _comparison_ratios(profile, seed)
    return float(sum(1 for name, mlp in ratios["mlp_pre"].items()
                     if mlp > 1.3 and ratios["speedup_pre"][name] < 1.02))


def _run_fig15_cdf(profile: Profile, seed: int) -> float:
    return percent_delta(_comparison_geomeans(profile, seed)["traffic_cdf"])


def _run_fig15_pre_vs_cdf(profile: Profile, seed: int) -> float:
    data = _comparison_geomeans(profile, seed)
    return percent_delta(data["traffic_pre"] / data["traffic_cdf"])


def _run_fig16_cdf(profile: Profile, seed: int) -> float:
    return percent_delta(_comparison_geomeans(profile, seed)["energy_cdf"])


def _run_fig16_pre(profile: Profile, seed: int) -> float:
    return percent_delta(_comparison_geomeans(profile, seed)["energy_pre"])


def _run_fig16_cdf_vs_pre(profile: Profile, seed: int) -> float:
    data = _comparison_geomeans(profile, seed)
    return percent_delta(data["energy_cdf"] / data["energy_pre"])


def _fig17(profile: Profile, seed: int) -> Dict:
    from .experiments import fig17_scaling
    return fig17_scaling(rob_sizes=profile.rob_sizes, names=profile.names,
                         scale=profile.scale, seed=seed)


def _run_fig17(profile: Profile, seed: int) -> float:
    ipc = _fig17(profile, seed)["ipc"]
    return ipc[(352, "cdf")] / ipc[(512, "baseline")]


def _run_fig17_base_gain(profile: Profile, seed: int) -> float:
    ipc = _fig17(profile, seed)["ipc"]
    return ipc[(512, "baseline")] / ipc[(192, "baseline")]


def _run_fig17_diminishing(profile: Profile, seed: int) -> float:
    """The baseline's 192->256 IPC step over its 352->512 step."""
    ipc = _fig17(profile, seed)["ipc"]
    return ((ipc[(256, "baseline")] / ipc[(192, "baseline")])
            / (ipc[(512, "baseline")] / ipc[(352, "baseline")]))


def _run_fig17_cdf_every_rob(profile: Profile, seed: int) -> float:
    ipc = _fig17(profile, seed)["ipc"]
    return min(ipc[(rob, "cdf")] / ipc[(rob, "baseline")]
               for rob in profile.rob_sizes)


def _run_fig17_cdf_gain(profile: Profile, seed: int) -> float:
    ipc = _fig17(profile, seed)["ipc"]
    return ipc[(352, "cdf")] / ipc[(352, "baseline")]


def _run_fig17_energy(profile: Profile, seed: int) -> float:
    energy = _fig17(profile, seed)["energy"]
    return energy[(512, "baseline")] / energy[(352, "cdf")]


def _margin(data: Dict, first: str, second: str) -> float:
    """Geomean speedup of arm *first* minus arm *second*, in pp."""
    return (percent_delta(data["geomean"][first])
            - percent_delta(data["geomean"][second]))


def _run_ablation_drop(profile: Profile, seed: int) -> float:
    from .experiments import ablation_critical_branches
    data = ablation_critical_branches(profile.names, profile.scale, seed)
    return _margin(data, "with", "without")


def _run_ablation_branches_off(profile: Profile, seed: int) -> float:
    from .experiments import ablation_critical_branches
    data = ablation_critical_branches(profile.names, profile.scale, seed)
    return percent_delta(data["geomean"]["without"])


def _run_partitioning_margin(profile: Profile, seed: int) -> float:
    from .experiments import ablation_partitioning
    data = ablation_partitioning(profile.names, profile.scale, seed)
    return _margin(data, "dynamic", "static")


def _run_partitioning_uplift(profile: Profile, seed: int) -> float:
    from .experiments import ablation_partitioning
    data = ablation_partitioning(profile.names, profile.scale, seed)
    return percent_delta(data["geomean"]["dynamic"])


def _run_partitioning_worst_kernel(profile: Profile, seed: int) -> float:
    from .experiments import ablation_partitioning
    data = ablation_partitioning(profile.names, profile.scale, seed)
    return min(100.0 * (dynamic - static) for dynamic, static in zip(
        _positive(data["dynamic"].values()),
        _positive(data["static"].values())))


def _run_thresholds_margin(profile: Profile, seed: int) -> float:
    from .experiments import ablation_thresholds
    data = ablation_thresholds(profile.names, profile.scale, seed)
    return _margin(data, "adaptive", "strict_only")


def _run_thresholds_uplift(profile: Profile, seed: int) -> float:
    from .experiments import ablation_thresholds
    data = ablation_thresholds(profile.names, profile.scale, seed)
    return percent_delta(data["geomean"]["adaptive"])


def _run_nc_uop_cache(profile: Profile, seed: int) -> float:
    from .experiments import ablation_nc_uop_cache
    data = ablation_nc_uop_cache(profile.names, profile.scale, seed)
    return _margin(data, "nc_cache", "plain")


def _disambiguation(profile: Profile, seed: int) -> List[Dict]:
    from .experiments import ablation_disambiguation
    return list(ablation_disambiguation(profile.names, profile.scale,
                                        seed).values())


def _run_disambiguation_base(profile: Profile, seed: int) -> float:
    return max(_ratio(row[("conservative", "baseline")].ipc,
                      row[("oracle", "baseline")].ipc)
               for row in _disambiguation(profile, seed))


def _run_disambiguation_cdf(profile: Profile, seed: int) -> float:
    return min(_ratio(row[("conservative", "cdf")].ipc,
                      row[("conservative", "baseline")].ipc)
               for row in _disambiguation(profile, seed))


def _run_disambiguation_retired(profile: Profile, seed: int) -> float:
    return float(max(abs(row[("conservative", "cdf")].retired_uops
                         - row[("oracle", "baseline")].retired_uops)
                     for row in _disambiguation(profile, seed)))


def _hints(profile: Profile, seed: int) -> List[Dict]:
    from .experiments import extension_static_hints
    return list(extension_static_hints(profile.names, profile.scale,
                                       seed).values())


def _run_hints_margin(profile: Profile, seed: int) -> float:
    runs = _hints(profile, seed)
    return _margin({"geomean": {
        arm: geomean(run[arm].speedup_over(run["baseline"]) for run in runs)
        for arm in ("hinted", "cdf")}}, "hinted", "cdf")


def _run_hints_residency(profile: Profile, seed: int) -> float:
    return min(_ratio(run["hinted"].counters["cdf_mode_cycles"],
                      run["cdf"].counters["cdf_mode_cycles"])
               for run in _hints(profile, seed))


def _longlat_uplift(arm: str) -> Runner:
    """A runner for CDF arm *arm*'s percent gain on the FDIV kernel."""
    def extract(profile: Profile, seed: int) -> float:
        from .experiments import extension_longlat
        runs = extension_longlat(profile.scale)
        return percent_delta(_ratio(runs[arm].ipc, runs["baseline"].ipc))
    return extract


def _memory_speed(profile: Profile, seed: int) -> Dict:
    from .experiments import extension_memory_speed
    return extension_memory_speed(profile.names, profile.scale, seed)


def _memory_nominal(mode: str) -> Runner:
    """A runner for *mode*'s geomean gain at nominal memory timing."""
    def extract(profile: Profile, seed: int) -> float:
        return percent_delta(_memory_speed(profile, seed)[1.0][mode])
    return extract


def _run_memory_pre_erodes(profile: Profile, seed: int) -> float:
    data = _memory_speed(profile, seed)
    return 100.0 * (data[1.0]["pre"] - data[0.25]["pre"])


def _run_memory_pre_loses_more(profile: Profile, seed: int) -> float:
    data = _memory_speed(profile, seed)
    pre_loss = data[1.0]["pre"] - data[0.25]["pre"]
    cdf_loss = data[1.0]["cdf"] - data[0.25]["cdf"]
    return 100.0 * (pre_loss - cdf_loss)


def _run_mshr_scaling(profile: Profile, seed: int) -> float:
    from .experiments import extension_mshr_scaling
    data = extension_mshr_scaling(profile.names, profile.scale, seed)
    return 100.0 * (min(data[16]["cdf"], data[32]["cdf"]) - data[4]["cdf"])


def _simpoints(profile: Profile, seed: int) -> Dict[str, Dict[str, float]]:
    """CDF and PRE speedups per evaluated region of the phased program."""
    from .experiments import extension_simpoints
    return {region: {mode: _ratio(runs[mode].ipc, runs["baseline"].ipc)
                     for mode in ("cdf", "pre")}
            for region, runs in extension_simpoints(profile.scale,
                                                    seed).items()}


def _simpoint_inflation(mode: str) -> Runner:
    """A runner for *mode*'s memory-phase gain minus its whole-program
    gain, in pp."""
    def extract(profile: Profile, seed: int) -> float:
        data = _simpoints(profile, seed)
        return 100.0 * (data["memory"][mode] - data["whole"][mode])
    return extract


def _simpoint_compute(mode: str) -> Runner:
    """A runner for *mode*'s percent gain on the compute phase."""
    def extract(profile: Profile, seed: int) -> float:
        return percent_delta(_simpoints(profile, seed)["compute"][mode])
    return extract


def _run_simpoint_pre_between(profile: Profile, seed: int) -> float:
    """Headroom, in pp, of whole-program PRE inside [compute phase
    - 2pp, memory phase]; negative when it falls outside."""
    pre = {region: data["pre"]
           for region, data in _simpoints(profile, seed).items()}
    return 100.0 * min(pre["whole"] - (pre["compute"] - 0.02),
                       pre["memory"] - pre["whole"])


def _run_table1_area(profile: Profile, seed: int) -> float:
    from ..energy import EnergyModel
    from .runner import config_for_mode
    return 100.0 * EnergyModel(config_for_mode("cdf")).cdf_area_overhead()


RUNNERS: Dict[str, Runner] = {
    "fig1_critical_fraction": _run_fig1,
    "fig1_stalling_kernels": _run_fig1_stalling,
    "fig1_sparse_share": _run_fig1_sparse_share,
    "fig1_stencil_gap": _run_fig1_stencil_gap,
    "fig13_cdf_uplift": _run_fig13_cdf,
    "fig13_pre_uplift": _run_fig13_pre,
    "fig13_cdf_margin": _run_fig13_margin,
    "fig14_cdf_mlp": _run_fig14_cdf,
    "fig14_pre_mlp": _run_fig14_pre,
    "fig14_pre_excess": _run_fig14_pre_excess,
    "fig14_useful_margin": _run_fig14_useful_margin,
    "fig14_pre_inflated": _run_fig14_pre_inflated,
    "fig15_cdf_traffic": _run_fig15_cdf,
    "fig15_pre_vs_cdf": _run_fig15_pre_vs_cdf,
    "fig15_cdf_worst_traffic": _comparison_extreme("traffic_cdf", max),
    "fig15_pre_worst_traffic": _comparison_extreme("traffic_pre", max),
    "fig16_cdf_energy": _run_fig16_cdf,
    "fig16_pre_energy": _run_fig16_pre,
    "fig16_cdf_vs_pre": _run_fig16_cdf_vs_pre,
    "fig16_cdf_best_energy": _comparison_extreme("energy_cdf", min),
    "fig17_scaling": _run_fig17,
    "fig17_base_gain": _run_fig17_base_gain,
    "fig17_diminishing": _run_fig17_diminishing,
    "fig17_cdf_every_rob": _run_fig17_cdf_every_rob,
    "fig17_cdf_gain": _run_fig17_cdf_gain,
    "fig17_energy": _run_fig17_energy,
    "ablation_branches_drop": _run_ablation_drop,
    "ablation_branches_off": _run_ablation_branches_off,
    "partitioning_margin": _run_partitioning_margin,
    "partitioning_uplift": _run_partitioning_uplift,
    "partitioning_worst_kernel": _run_partitioning_worst_kernel,
    "thresholds_margin": _run_thresholds_margin,
    "thresholds_uplift": _run_thresholds_uplift,
    "nc_uop_cache": _run_nc_uop_cache,
    "disambiguation_base": _run_disambiguation_base,
    "disambiguation_cdf": _run_disambiguation_cdf,
    "disambiguation_retired": _run_disambiguation_retired,
    "hints_margin": _run_hints_margin,
    "hints_residency": _run_hints_residency,
    "longlat_loads_only": _longlat_uplift("loads_only"),
    "longlat_uplift": _longlat_uplift("longlat"),
    "memory_cdf_nominal": _memory_nominal("cdf"),
    "memory_pre_nominal": _memory_nominal("pre"),
    "memory_pre_erodes": _run_memory_pre_erodes,
    "memory_pre_loses_more": _run_memory_pre_loses_more,
    "mshr_scaling": _run_mshr_scaling,
    "simpoint_pre_inflation": _simpoint_inflation("pre"),
    "simpoint_cdf_inflation": _simpoint_inflation("cdf"),
    "simpoint_compute_pre": _simpoint_compute("pre"),
    "simpoint_compute_cdf": _simpoint_compute("cdf"),
    "simpoint_pre_between": _run_simpoint_pre_between,
    "table1_area": _run_table1_area,
}
