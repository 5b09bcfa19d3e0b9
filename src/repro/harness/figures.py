"""Paper-parity figure registry and reproduction pipeline.

This module is the public face of the reproduction: a declarative
registry of every headline claim in the paper (one :class:`FigureSpec`
per claim), plus the machinery to run them all with one command —
``repro-sim figures`` — and answer "do we match the paper?" with a
per-claim verdict.

Each spec names the paper figure/table it comes from, the claim in
prose, the paper's number, a metric extractor over the existing figure
drivers (:mod:`repro.harness.experiments`), and a tolerance band, in
two execution profiles:

**QUICK**
    CI-sized: a 6-kernel subset at workload scale 0.3.  Every claim
    runs end-to-end through the engine/result cache in ~15 s cold and
    well under a second warm.  QUICK values are pinned in
    ``benchmarks/figures_baseline.json`` — they are deterministic, so
    CI diffs them exactly and any drift is a model change that must be
    acknowledged with ``--write-baseline``.

**FULL**
    Paper-faithful: the whole 18-kernel suite at scale 1.0 (the
    EXPERIMENTS.md configuration).  Minutes cold, seconds warm.

Verdicts:

``match``
    |measured - paper| within the claim's ``match_tol`` (or at/above
    the threshold for directional ``min``/``max`` claims).
``within-tolerance``
    Inside the wider ``tolerance`` band: the claim reproduces
    directionally but the magnitude differs (usually a scale artifact —
    see the known-divergence table in docs/PAPER_VS_CODE.md).
``diverged``
    Outside the band.  CI fails on any unacknowledged divergence.
``planned``
    Registered but not yet implemented (forward-looking claims from
    PAPERS.md).  Listed in every run so they are never silently
    omitted.

Run history is appended to ``BENCH_figures.json`` (one record per
invocation, newest last) so per-PR trends render as sparklines on the
dashboard (:mod:`repro.harness.figdash`).  ``docs/PAPER_VS_CODE.md``
embeds a generated claim-map table between markers that
``repro-sim figures --sync-doc`` rewrites from this registry, so the
document can never drift from what the code actually runs.

This module is on simlint's DET003 wall-clock allowlist: the history
records it appends are timestamped; simulation results never depend on
the clock.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..stats.metrics import MetricDomainError, geomean, mean, percent_delta
from ..workloads import DEFAULT_SEED, suite_names
from .engine import code_salt
from .tables import render_table

#: Stable schema version for BENCH_figures.json / figures_baseline.json
#: records (bump on any shape change).
SCHEMA_VERSION = 1

DEFAULT_BENCH_REPORT = "BENCH_figures.json"
DEFAULT_BASELINE = os.path.join("benchmarks", "figures_baseline.json")
DEFAULT_CLAIM_DOC = os.path.join("docs", "PAPER_VS_CODE.md")

#: Cap on retained history records in BENCH_figures.json.
HISTORY_KEEP = 100

MATCH = "match"
WITHIN = "within-tolerance"
DIVERGED = "diverged"
PLANNED = "planned"

#: QUICK profile: the perfbench 6-kernel subset at scale 0.3 — the
#: smallest configuration that reproduces the paper's *shape* (CDF
#: clearly ahead of PRE ahead of baseline).  Scales below ~0.25 leave
#: the CDF predictor tables undertrained and every uplift collapses
#: toward zero; do not shrink this without re-pinning the baseline.
QUICK_NAMES: Tuple[str, ...] = ("astar", "mcf", "milc", "bzip", "nab",
                                "lbm")
QUICK_SCALE = 0.3
FULL_SCALE = 1.0

#: Fig. 17's FULL profile runs a restricted kernel set (ROB sweeps
#: multiply job count); same subset as the `repro-sim report` section.
FULL_SCALING_NAMES: Tuple[str, ...] = ("astar", "milc", "nab", "lbm",
                                       "zeusmp", "sphinx")


@dataclass(frozen=True)
class Profile:
    """One execution configuration of a claim's metric."""
    names: Tuple[str, ...]
    scale: float
    rob_sizes: Tuple[int, ...] = ()


#: Analytic claims (Table 1 area) run no simulations at all.
ANALYTIC = Profile(names=(), scale=0.0)


@dataclass(frozen=True)
class FigureSpec:
    """One headline claim of the paper, declaratively.

    ``kind`` selects the verdict rule: ``"value"`` compares
    |measured - paper_value| against ``match_tol`` then ``tolerance``;
    ``"min"``/``"max"`` are directional — measured at/above (below)
    ``paper_value`` is a match, within ``tolerance`` of it is
    within-tolerance.  Units of ``paper_value``/``match_tol``/
    ``tolerance`` are the claim's ``unit``.
    """
    fig_id: str
    paper_ref: str
    claim: str
    unit: str
    paper_value: float
    kind: str = "value"          # "value" | "min" | "max"
    match_tol: float = 0.0
    tolerance: float = 0.0
    runner: str = ""             # key into RUNNERS
    quick: Optional[Profile] = None
    full: Optional[Profile] = None
    status: str = "implemented"  # "implemented" | "planned"
    note: str = ""

    @property
    def command(self) -> str:
        """The exact CLI invocation that reproduces this claim at
        paper-faithful scale."""
        if self.status != "implemented":
            return "-"
        return f"repro-sim figures --full --fig {self.fig_id}"

    def profile(self, mode: str) -> Profile:
        if mode == "quick":
            profile = self.quick
        elif mode == "full":
            profile = self.full
        else:
            raise ValueError(f"unknown figures mode: {mode!r}")
        if profile is None:
            raise ValueError(f"{self.fig_id} has no {mode} profile")
        return profile

    def paper_text(self) -> str:
        """The paper's number, formatted for display."""
        if self.kind == "min":
            return f">= {format_value(self.unit, self.paper_value)}"
        if self.kind == "max":
            return f"<= {format_value(self.unit, self.paper_value)}"
        return format_value(self.unit, self.paper_value)


def format_value(unit: str, value: float) -> str:
    """Render a metric value in its claim's unit."""
    if unit == "%":
        return f"{value:+.2f}%"
    if unit == "pp":
        return f"{value:+.2f}pp"
    if unit == "x":
        return f"{value:.3f}x"
    if unit == "% of ROB":
        return f"{value:.1f}%"
    return f"{value:.3f}"


# --------------------------------------------------------------- metrics
# Every runner maps (profile, seed) -> a scalar in the spec's unit.
# They all go through the drivers in repro.harness.experiments, so the
# engine fans the simulations out across workers, the persistent result
# cache memoizes them across invocations, and the Fig. 13-16 + ablation
# claims share one in-process comparison per (names, scale, seed).

def _claim_geomean(values) -> float:
    """Geomean with the figure-extractor contract.

    :func:`repro.stats.metrics.geomean` raises
    :class:`~repro.stats.metrics.MetricDomainError` on empty or
    non-positive input; for an extractor that means the claim's kernel
    list filtered to nothing (or a run produced a zero metric), which
    the registry reports as the sentinel value 0.0 — a guaranteed
    ``diverged`` verdict — rather than crashing the whole registry run.
    """
    try:
        return geomean(values)
    except MetricDomainError:
        return 0.0


def _comparison_geomeans(profile: Profile, seed: int) -> Dict[str, float]:
    """Geomean CDF/PRE ratios for speedup, MLP, traffic, and energy."""
    from .experiments import get_comparison
    from .runner import speedups
    results = get_comparison(profile.names, profile.scale, seed)
    out: Dict[str, float] = {}
    for mode in ("cdf", "pre"):
        out[f"speedup_{mode}"] = _claim_geomean(
            speedups(results, mode).values())
        for metric, method in (("mlp", "mlp_ratio"),
                               ("traffic", "traffic_ratio"),
                               ("energy", "energy_ratio")):
            out[f"{metric}_{mode}"] = _claim_geomean(
                getattr(by_mode[mode], method)(by_mode["baseline"])
                for by_mode in results.values())
    return out


def _run_fig1(profile: Profile, seed: int) -> float:
    from .experiments import fig01_rob_distribution
    fractions = fig01_rob_distribution(profile.names, profile.scale, seed)
    stalling = [f for f in fractions.values() if f > 0]
    return 100.0 * mean(stalling)


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


def _run_fig14_pre_excess(profile: Profile, seed: int) -> float:
    data = _comparison_geomeans(profile, seed)
    return data["mlp_pre"] - data["mlp_cdf"]


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


def _run_fig17(profile: Profile, seed: int) -> float:
    from .experiments import fig17_scaling
    data = fig17_scaling(rob_sizes=profile.rob_sizes, names=profile.names,
                         scale=profile.scale, seed=seed)
    return data["ipc"][(352, "cdf")] / data["ipc"][(512, "baseline")]


def _run_ablation_drop(profile: Profile, seed: int) -> float:
    from .experiments import ablation_critical_branches
    data = ablation_critical_branches(profile.names, profile.scale, seed)
    return (percent_delta(data["geomean"]["with"])
            - percent_delta(data["geomean"]["without"]))


def _run_table1_area(profile: Profile, seed: int) -> float:
    from ..energy import EnergyModel
    from .runner import config_for_mode
    return 100.0 * EnergyModel(config_for_mode("cdf")).cdf_area_overhead()


RUNNERS: Dict[str, Callable[[Profile, int], float]] = {
    "fig1_critical_fraction": _run_fig1,
    "fig13_cdf_uplift": _run_fig13_cdf,
    "fig13_pre_uplift": _run_fig13_pre,
    "fig13_cdf_margin": _run_fig13_margin,
    "fig14_cdf_mlp": _run_fig14_cdf,
    "fig14_pre_excess": _run_fig14_pre_excess,
    "fig15_cdf_traffic": _run_fig15_cdf,
    "fig15_pre_vs_cdf": _run_fig15_pre_vs_cdf,
    "fig16_cdf_energy": _run_fig16_cdf,
    "fig16_pre_energy": _run_fig16_pre,
    "fig16_cdf_vs_pre": _run_fig16_cdf_vs_pre,
    "fig17_scaling": _run_fig17,
    "ablation_branches_drop": _run_ablation_drop,
    "table1_area": _run_table1_area,
}


# -------------------------------------------------------------- registry
def _quick() -> Profile:
    return Profile(QUICK_NAMES, QUICK_SCALE)


def _full() -> Profile:
    return Profile(tuple(suite_names()), FULL_SCALE)


REGISTRY: Tuple[FigureSpec, ...] = (
    FigureSpec(
        fig_id="fig1-critical-fraction",
        paper_ref="Fig. 1",
        claim="During full-window stalls, critical uops occupy only "
              "10-40% of the baseline ROB for most benchmarks — the "
              "window is mostly non-critical work.",
        unit="% of ROB", paper_value=25.0, kind="value",
        match_tol=15.0, tolerance=20.0,
        runner="fig1_critical_fraction", quick=_quick(), full=_full(),
        note="Paper reports a per-benchmark range; we compare the mean "
             "over stalling benchmarks against the band's midpoint."),
    FigureSpec(
        fig_id="fig13-cdf-uplift",
        paper_ref="Fig. 13",
        claim="CDF improves geomean IPC by 6.1% over the baseline "
              "core.",
        unit="%", paper_value=6.1, kind="value",
        match_tol=2.0, tolerance=6.0,
        runner="fig13_cdf_uplift", quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig13-pre-uplift",
        paper_ref="Fig. 13",
        claim="PRE (precise runahead) improves geomean IPC by 2.6%.",
        unit="%", paper_value=2.6, kind="value",
        match_tol=2.0, tolerance=6.0,
        runner="fig13_pre_uplift", quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig13-cdf-beats-pre",
        paper_ref="Fig. 13",
        claim="CDF outperforms PRE (positive geomean IPC margin).",
        unit="pp", paper_value=0.0, kind="min", tolerance=1.0,
        runner="fig13_cdf_margin", quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig14-cdf-mlp",
        paper_ref="Fig. 14",
        claim="CDF raises memory-level parallelism over the baseline "
              "by overlapping critical-load misses.",
        unit="x", paper_value=1.0, kind="min", tolerance=0.05,
        runner="fig14_cdf_mlp", quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig14-pre-mlp-excess",
        paper_ref="Fig. 14",
        claim="PRE's MLP exceeds CDF's — runahead prefetches "
              "wrong-chain loads that raise MLP without helping "
              "performance.",
        unit="x", paper_value=0.0, kind="min", tolerance=0.05,
        runner="fig14_pre_excess", quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig15-cdf-traffic",
        paper_ref="Fig. 15",
        claim="CDF adds essentially no DRAM traffic over the baseline "
              "(it only reorders demand fetches).",
        unit="%", paper_value=0.0, kind="value",
        match_tol=2.0, tolerance=5.0,
        runner="fig15_cdf_traffic", quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig15-cdf-saves-vs-pre",
        paper_ref="Fig. 15",
        claim="PRE generates ~4% more DRAM traffic than CDF "
              "(speculative runahead fetches).",
        unit="%", paper_value=4.0, kind="min", tolerance=4.0,
        runner="fig15_pre_vs_cdf", quick=_quick(), full=_full(),
        note="QUICK undershoots: at scale 0.3 PRE's runahead intervals "
             "are short, so its excess traffic is smaller."),
    FigureSpec(
        fig_id="fig16-cdf-energy",
        paper_ref="Fig. 16",
        claim="CDF reduces energy by 3.5% versus the baseline (fewer "
              "stall cycles at near-identical traffic).",
        unit="%", paper_value=-3.5, kind="value",
        match_tol=1.5, tolerance=4.0,
        runner="fig16_cdf_energy", quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig16-pre-energy",
        paper_ref="Fig. 16",
        claim="PRE increases energy by 3.7% (runahead re-execution "
              "plus extra traffic).",
        unit="%", paper_value=3.7, kind="value",
        match_tol=1.5, tolerance=6.0,
        runner="fig16_pre_energy", quick=_quick(), full=_full(),
        note="QUICK undershoots (can even go slightly negative): PRE's "
             "energy overhead needs long stalls to accumulate."),
    FigureSpec(
        fig_id="fig16-cdf-saves-vs-pre",
        paper_ref="Fig. 16",
        claim="CDF consumes ~7.2% less energy than PRE.",
        unit="%", paper_value=-7.2, kind="value",
        match_tol=2.0, tolerance=6.0,
        runner="fig16_cdf_vs_pre", quick=_quick(), full=_full(),
        note="Derived from the two Fig. 16 geomeans (CDF/PRE energy "
             "ratio)."),
    FigureSpec(
        fig_id="fig17-area-scaling",
        paper_ref="Fig. 17",
        claim="CDF on the 352-entry core outperforms a 45%-larger "
              "(512-entry) baseline — scaling the window is a worse "
              "deal than fetching critically.",
        unit="x", paper_value=1.0, kind="min", tolerance=0.08,
        runner="fig17_scaling",
        quick=Profile(QUICK_NAMES, QUICK_SCALE, (352, 512)),
        full=Profile(FULL_SCALING_NAMES, FULL_SCALE, (352, 512)),
        note="QUICK sits barely above 1.0: short runs under-train the "
             "CDF tables while the larger window helps immediately."),
    FigureSpec(
        fig_id="ablation-branches-drop",
        paper_ref="Sec. 4.2",
        claim="Disabling critical-branch marking drops the geomean "
              "CDF speedup (paper: 6.1% -> 3.8%, a 2.3pp drop).",
        unit="pp", paper_value=2.3, kind="value",
        match_tol=1.0, tolerance=2.5,
        runner="ablation_branches_drop", quick=_quick(), full=_full(),
        note="QUICK undershoots the drop: short runs under-train the "
             "branch criticality tables in both arms."),
    FigureSpec(
        fig_id="table1-area",
        paper_ref="Table 1",
        claim="CDF's structures (CCT, mask cache, critical uop cache, "
              "FIFOs) add 3.2% area over the baseline core.",
        unit="%", paper_value=3.2, kind="value",
        match_tol=0.3, tolerance=1.0,
        runner="table1_area", quick=ANALYTIC, full=ANALYTIC,
        note="Analytic (energy/area model); runs no simulations."),
    FigureSpec(
        fig_id="cgooo-energy",
        paper_ref="PAPERS.md: CG-OoO",
        claim="Energy comparison against a CG-OoO-style clustered "
              "core (block-level criticality vs uop-level CDF).",
        unit="%", paper_value=0.0, status="planned",
        note="Needs a clustered-backend energy model; tracked as "
             "future work in ROADMAP.md."),
    FigureSpec(
        fig_id="multicore-criticality",
        paper_ref="PAPERS.md: Criticality Aware Multiprocessors",
        claim="CDF under shared-LLC multicore contention "
              "(criticality-aware arbitration between cores).",
        unit="%", paper_value=0.0, status="planned",
        note="Single-core simulator today; needs a shared-LLC "
             "multicore harness."),
)

_BY_ID: Dict[str, FigureSpec] = {spec.fig_id: spec for spec in REGISTRY}


def get_spec(fig_id: str) -> FigureSpec:
    try:
        return _BY_ID[fig_id]
    except KeyError:
        known = ", ".join(sorted(_BY_ID))
        raise ValueError(
            f"unknown figure claim {fig_id!r}; known: {known}") from None


def implemented_specs() -> List[FigureSpec]:
    return [spec for spec in REGISTRY if spec.status == "implemented"]


# -------------------------------------------------------------- verdicts
def verdict(spec: FigureSpec, value: Optional[float]) -> str:
    """Classify a measured *value* against *spec*'s bands."""
    if spec.status != "implemented" or value is None:
        return PLANNED
    if spec.kind == "min":
        if value >= spec.paper_value:
            return MATCH
        if value >= spec.paper_value - spec.tolerance:
            return WITHIN
        return DIVERGED
    if spec.kind == "max":
        if value <= spec.paper_value:
            return MATCH
        if value <= spec.paper_value + spec.tolerance:
            return WITHIN
        return DIVERGED
    delta = abs(value - spec.paper_value)
    if delta <= spec.match_tol:
        return MATCH
    if delta <= spec.tolerance:
        return WITHIN
    return DIVERGED


@dataclass(frozen=True)
class ClaimResult:
    """One claim's measured value and verdict under one profile."""
    fig_id: str
    mode: str
    value: Optional[float]
    verdict: str
    scale: float
    names: Tuple[str, ...]

    @property
    def spec(self) -> FigureSpec:
        return get_spec(self.fig_id)

    def to_dict(self) -> dict:
        return {
            "value": (None if self.value is None
                      else round(self.value, 6)),
            "verdict": self.verdict,
            "scale": self.scale,
            "names": list(self.names),
        }


# ------------------------------------------------------------- execution
class ClaimValueError(ValueError):
    """An implemented claim's extractor returned no finite value.

    Such a value has no honest verdict: ``None`` would count as planned
    and NaN as diverged, so the run fails instead.
    """


def run_claim(spec: FigureSpec, mode: str,
              seed: int = DEFAULT_SEED) -> ClaimResult:
    """Run one claim's metric under its *mode* profile.

    Raises :class:`ClaimValueError` when an implemented claim's value
    is ``None`` or not finite.
    """
    if spec.status != "implemented":
        return ClaimResult(spec.fig_id, mode, None, PLANNED, 0.0, ())
    profile = spec.profile(mode)
    value = RUNNERS[spec.runner](profile, seed)
    if value is None or not math.isfinite(value):
        raise ClaimValueError(
            f"claim {spec.fig_id} [{mode}]: extractor returned {value!r}, "
            f"not a finite number")
    return ClaimResult(spec.fig_id, mode, value, verdict(spec, value),
                       profile.scale, profile.names)


def run_figures(mode: str = "quick",
                fig_ids: Optional[Sequence[str]] = None,
                seed: int = DEFAULT_SEED,
                progress: Optional[Callable[[str], None]] = None,
                ) -> List[ClaimResult]:
    """Run the registry (or a ``fig_ids`` subset) and return one
    :class:`ClaimResult` per claim — planned claims included, so
    nothing is ever silently skipped."""
    if fig_ids:
        specs = [get_spec(fig_id) for fig_id in fig_ids]
    else:
        specs = list(REGISTRY)
    results = []
    for spec in specs:
        if progress is not None and spec.status == "implemented":
            profile = spec.profile(mode)
            what = (f"{spec.fig_id} [{mode}] scale={profile.scale} "
                    f"({len(profile.names)} kernels)"
                    if profile.names else f"{spec.fig_id} (analytic)")
            progress(what)
        results.append(run_claim(spec, mode, seed=seed))
    return results


def summarize(results: Sequence[ClaimResult]) -> Dict[str, int]:
    counts = {MATCH: 0, WITHIN: 0, DIVERGED: 0, PLANNED: 0}
    for result in results:
        counts[result.verdict] += 1
    return counts


def format_figures(results: Sequence[ClaimResult],
                   mode: str = "quick") -> str:
    """Render the per-claim verdict table the CLI prints."""
    rows = []
    for result in results:
        spec = result.spec
        measured = ("-" if result.value is None
                    else format_value(spec.unit, result.value))
        rows.append((spec.fig_id, spec.paper_ref, spec.paper_text(),
                     measured, result.verdict))
    counts = summarize(results)
    footer = ("TOTAL", "", "", "",
              f"{counts[MATCH]} match / {counts[WITHIN]} within / "
              f"{counts[DIVERGED]} diverged / {counts[PLANNED]} planned")
    return render_table(
        f"Paper parity — {mode.upper()} profile "
        f"(see docs/PAPER_VS_CODE.md)",
        ("claim", "paper ref", "paper", "measured", "verdict"),
        rows, footer)


def describe_registry() -> str:
    """The ``--list`` view: every claim with its profiles and bands."""
    rows = []
    for spec in REGISTRY:
        if spec.status != "implemented":
            rows.append((spec.fig_id, spec.paper_ref, spec.paper_text(),
                         "planned", "-"))
            continue
        quick = spec.profile("quick")
        shape = (f"{len(quick.names)} kernels @ {quick.scale}"
                 if quick.names else "analytic")
        band = (f"tol {format_value(spec.unit, spec.tolerance)}"
                if spec.kind != "value" else
                f"match +/-{spec.match_tol:g}, tol +/-{spec.tolerance:g}")
        rows.append((spec.fig_id, spec.paper_ref, spec.paper_text(),
                     shape, band))
    return render_table(
        "figure claim registry (quick profile shown; --full runs the "
        "18-kernel suite at scale 1.0)",
        ("claim", "paper ref", "paper", "quick profile", "band"), rows)


# ----------------------------------------------------- history + baseline
def bench_record(results: Sequence[ClaimResult], mode: str,
                 seed: int = DEFAULT_SEED) -> dict:
    """One BENCH_figures.json history record for this invocation."""
    return {
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "seed": seed,
        "generated_unix": int(time.time()),
        "code": code_salt(),
        "summary": summarize(results),
        "claims": {result.fig_id: result.to_dict()
                   for result in results},
    }


def load_history(path: str = DEFAULT_BENCH_REPORT) -> List[dict]:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return []
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
        return []
    history = data.get("history", [])
    return history if isinstance(history, list) else []


def append_history(record: dict, path: str = DEFAULT_BENCH_REPORT,
                   keep: int = HISTORY_KEEP) -> List[dict]:
    """Append *record* to the bench file (newest last, capped)."""
    history = load_history(path)
    history.append(record)
    history = history[-keep:]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": SCHEMA_VERSION, "history": history},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    return history


def baseline_record(record: dict) -> dict:
    """The pinned-baseline view of a bench record: values + verdicts
    only (timestamps and code salts are volatile by design)."""
    return {
        "schema": record["schema"],
        "mode": record["mode"],
        "seed": record["seed"],
        "claims": {
            fig_id: {"value": claim["value"], "verdict": claim["verdict"]}
            for fig_id, claim in record["claims"].items()
        },
    }


def write_baseline(record: dict, path: str = DEFAULT_BASELINE) -> dict:
    pinned = baseline_record(record)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return pinned


def load_baseline(path: str = DEFAULT_BASELINE) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def check_baseline(record: dict, baseline: dict) -> List[str]:
    """Diff a bench record against the pinned baseline.

    QUICK values are deterministic (fixed seed, engine-cached, no
    wall-clock in any metric), so the comparison is exact on the
    6-decimal rounded values; any drift means the model changed and the
    baseline must be re-pinned deliberately (``--write-baseline``).
    Returns human-readable drift lines; empty means clean.
    """
    problems: List[str] = []
    if baseline.get("schema") != record.get("schema"):
        return [f"baseline schema {baseline.get('schema')!r} != "
                f"current {record.get('schema')!r} — re-pin"]
    for key in ("mode", "seed"):
        if baseline.get(key) != record.get(key):
            return [f"baseline {key} {baseline.get(key)!r} != current "
                    f"{record.get(key)!r} — not comparable"]
    pinned = baseline.get("claims", {})
    current = record.get("claims", {})
    for fig_id in sorted(set(pinned) | set(current)):
        then = pinned.get(fig_id)
        now = current.get(fig_id)
        if then is None:
            problems.append(f"{fig_id}: not in baseline (new claim — "
                            "re-pin with --write-baseline)")
            continue
        if now is None:
            problems.append(f"{fig_id}: in baseline but not in this run")
            continue
        if then.get("verdict") != now.get("verdict"):
            problems.append(
                f"{fig_id}: verdict {then.get('verdict')} -> "
                f"{now.get('verdict')}")
        if then.get("value") != now.get("value"):
            problems.append(
                f"{fig_id}: value {then.get('value')} -> "
                f"{now.get('value')}")
    return problems


# ------------------------------------------------------------- claim map
GENERATED_BEGIN = ("<!-- BEGIN GENERATED: claim-map "
                   "(repro-sim figures --sync-doc) -->")
GENERATED_END = "<!-- END GENERATED: claim-map -->"


def render_claim_map() -> str:
    """The generated markdown table embedded in docs/PAPER_VS_CODE.md.

    One row per registered claim — including ``planned`` ones — with
    the paper reference, the paper's number, the verdict gate, and the
    exact command that reproduces it.  Regenerated by
    ``repro-sim figures --sync-doc``; hand edits inside the markers are
    overwritten.
    """
    lines = [
        "| claim | paper | paper value | verdict gate | status "
        "| reproduce |",
        "|---|---|---|---|---|---|",
    ]
    for spec in REGISTRY:
        if spec.status != "implemented":
            gate = "-"
            status = "planned"
            command = "-"
        else:
            if spec.kind == "value":
                gate = (f"match ±{spec.match_tol:g}, "
                        f"tolerance ±{spec.tolerance:g} {spec.unit}")
            else:
                bound = ">=" if spec.kind == "min" else "<="
                gate = (f"match {bound} {spec.paper_value:g}, "
                        f"tolerance {spec.tolerance:g} {spec.unit}")
            status = "implemented"
            command = f"`{spec.command}`"
        lines.append(
            f"| `{spec.fig_id}` | {spec.paper_ref} | {spec.paper_text()} "
            f"| {gate} | {status} | {command} |")
    return "\n".join(lines)


def sync_claim_map(path: str = DEFAULT_CLAIM_DOC) -> bool:
    """Rewrite the generated block in *path*; returns True if the file
    changed.  Raises if the markers are missing (the hand-annotated
    document owns everything outside them)."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    begin = text.find(GENERATED_BEGIN)
    end = text.find(GENERATED_END)
    if begin < 0 or end < 0 or end < begin:
        raise ValueError(f"{path} is missing the claim-map markers "
                         f"({GENERATED_BEGIN!r} ... {GENERATED_END!r})")
    head = text[:begin + len(GENERATED_BEGIN)]
    tail = text[end:]
    updated = head + "\n" + render_claim_map() + "\n" + tail
    if updated == text:
        return False
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(updated)
    return True
