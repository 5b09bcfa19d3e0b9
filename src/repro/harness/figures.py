"""Paper-parity figure registry and reproduction pipeline.

This module is the public face of the reproduction: a declarative
registry of every headline claim in the paper (one :class:`FigureSpec`
per claim), plus the machinery to run them all with one command —
``repro-sim figures`` — and answer "do we match the paper?" with a
per-claim verdict.

Each spec names the paper figure/table it comes from, the claim in
prose, the paper's number, its metric function
(:mod:`repro.harness.extractors`) over the studies in
:mod:`repro.harness.experiments`, and a tolerance band, in up to two
execution profiles, each naming the workloads it simulates:

**QUICK**
    CI-sized: a 6-kernel subset at workload scale 0.3.  Every claim
    runs end-to-end through the engine/result cache in ~15 s cold and
    well under a second warm.  QUICK values are pinned in
    ``benchmarks/figures_baseline.json`` — they are deterministic, so
    CI diffs them exactly and any drift is a model change that must be
    acknowledged with ``--write-baseline``.

**FULL**
    Paper-faithful: scale 1.0, on the whole 18-kernel suite or on the
    kernel subset a study was designed around.  Every implemented claim
    has a FULL profile.  The per-family, worst-kernel, ablation and
    extension claims have only that one (``quick=None``: "FULL-only"
    claims), and a whole-registry QUICK run leaves them out.  FULL
    values are pinned in ``benchmarks/figures_baseline_full.json``.
    Minutes cold, seconds warm.

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

from ..stats.metrics import MetricDomainError
from ..workloads import (
    BRANCH_SENSITIVE,
    DEFAULT_SEED,
    NEUTRAL,
    PRE_FAVOURABLE,
    suite_names,
)
from .engine import code_salt
from . import extractors
from .extractors import Metric, Profile
from .tables import render_table

#: Stable schema version for BENCH_figures.json / figures_baseline.json
#: records (bump on any shape change).
SCHEMA_VERSION = 1

DEFAULT_BENCH_REPORT = "BENCH_figures.json"
DEFAULT_BASELINE = os.path.join("benchmarks", "figures_baseline.json")
DEFAULT_FULL_BASELINE = os.path.join("benchmarks",
                                     "figures_baseline_full.json")
DEFAULT_CLAIM_DOC = os.path.join("docs", "PAPER_VS_CODE.md")

#: Cap on retained history records in BENCH_figures.json.
HISTORY_KEEP = 100

MATCH = "match"
WITHIN = "within-tolerance"
DIVERGED = "diverged"
PLANNED = "planned"

#: QUICK profile: six kernels at scale 0.3 — the smallest configuration
#: that reproduces the paper's *shape* (CDF clearly ahead of PRE ahead
#: of baseline).  Scales below ~0.25 leave the CDF predictor tables
#: undertrained and every uplift collapses toward zero; do not shrink
#: this without re-pinning the baseline.
QUICK_NAMES: Tuple[str, ...] = ("astar", "mcf", "milc", "bzip", "nab",
                                "lbm")
QUICK_SCALE = 0.3
FULL_SCALE = 1.0

#: Fig. 17's FULL profile runs a restricted kernel set (ROB sweeps
#: multiply job count): CDF winners, a stencil and a neutral kernel.
FULL_SCALING_NAMES: Tuple[str, ...] = ("astar", "milc", "nab", "lbm",
                                       "zeusmp", "sphinx")
#: Every ROB size the Fig. 17 claims read.
FIG17_ROB_SIZES: Tuple[int, ...] = (192, 256, 352, 512)

#: Kernel subsets of the ablation and extension studies: each names the
#: kernels where its mechanism has something to show.
PARTITIONING_NAMES = ("astar", "milc", "bzip", "nab", "mcf", "lbm")
THRESHOLD_NAMES = ("astar", "milc", "nab", "bzip", "soplex", "lbm")
NC_CACHE_NAMES = ("astar", "milc", "bzip", "nab", "mcf", "soplex")
#: Store-carrying kernels.
DISAMBIGUATION_NAMES = ("libquantum", "lbm", "soplex", "bzip")
HINT_NAMES = ("astar", "milc", "bzip", "nab")
#: Kernels with stall windows long enough for PRE to exploit.
MEMORY_SPEED_NAMES = ("astar", "milc", "zeusmp", "GemsFDTD")
#: Sparse-chain kernels, where window expansion pays.
MSHR_NAMES = ("astar", "milc")


#: Study programs that are not suite kernels
#: (:data:`repro.workloads.STUDY_PROGRAMS`): the FDIV-chain kernel, and
#: the phased SimPoint programs — the memory phase alone, the compute
#: phase alone, and the whole two-phase program.
LONGLAT_NAMES = ("fdiv_chain",)
SIMPOINT_NAMES = ("phased_memory", "phased_compute", "phased")

#: Analytic claims (Table 1 area) run no simulations at all.
ANALYTIC = Profile(names=(), scale=0.0)


@dataclass(frozen=True)
class FigureSpec:
    """One claim of the paper — a headline number, an ablation or an
    extension — declaratively.  ``quick=None`` makes it FULL-only.

    ``kind`` selects the verdict rule: ``"value"`` compares
    |measured - paper_value| against ``match_tol`` then ``tolerance``;
    ``"min"``/``"max"`` are directional — measured at/above (below)
    ``paper_value`` is a match, within ``tolerance`` of it is
    within-tolerance.  Units of ``paper_value``/``match_tol``/
    ``tolerance`` are the claim's ``unit``.

    ``metric`` maps a profile (the workloads and scale of ``quick`` or
    ``full``) and a seed to the measured value; a planned claim has
    none.
    """
    fig_id: str
    paper_ref: str
    claim: str
    unit: str
    paper_value: float
    kind: str = "value"          # "value" | "min" | "max"
    match_tol: float = 0.0
    tolerance: float = 0.0
    metric: Optional[Metric] = None
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

    @property
    def full_only(self) -> bool:
        """An implemented claim with no QUICK profile: a whole-registry
        QUICK run leaves it out."""
        return self.status == "implemented" and self.quick is None

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
    if unit in ("kernels", "uops"):
        return f"{value:g} {unit}"
    return f"{value:.3f}"


# -------------------------------------------------------------- registry
def _quick() -> Profile:
    return Profile(QUICK_NAMES, QUICK_SCALE)


def _full(names: Sequence[str] = (),
          rob_sizes: Tuple[int, ...] = ()) -> Profile:
    """A FULL profile on *names* (default: the whole suite)."""
    return Profile(tuple(names or suite_names()), FULL_SCALE, rob_sizes)


REGISTRY: Tuple[FigureSpec, ...] = (
    FigureSpec(
        fig_id="fig1-critical-fraction",
        paper_ref="Fig. 1",
        claim="During full-window stalls, critical uops occupy only "
              "10-40% of the baseline ROB for most benchmarks — the "
              "window is mostly non-critical work.",
        unit="% of ROB", paper_value=25.0, kind="value",
        match_tol=15.0, tolerance=20.0,
        metric=extractors.fig1_critical_fraction, quick=_quick(), full=_full(),
        note="Paper reports a per-benchmark range; we compare the mean "
             "over stalling benchmarks against the band's midpoint."),
    FigureSpec(
        fig_id="fig1-stalling-kernels",
        paper_ref="Fig. 1",
        claim="Full-window stalls are common: at least 8 of the 18 "
              "kernels stall with a full ROB on the baseline core.",
        unit="kernels", paper_value=8.0, kind="min",
        metric=extractors.fig1_stalling_kernels, full=_full()),
    FigureSpec(
        fig_id="fig1-sparse-critical-share",
        paper_ref="Fig. 1",
        claim="Outside the dense-stencil family, critical uops hold "
              "under half of the stalled ROB (mean over the stalling "
              "kernels).",
        unit="% of ROB", paper_value=50.0, kind="max",
        metric=extractors.fig1_sparse_share, full=_full()),
    FigureSpec(
        fig_id="fig1-stencil-highest",
        paper_ref="Fig. 1",
        claim="The dense-stencil family sits higher: its largest "
              "critical share is no more than 50pp below the largest "
              "of the other stalling kernels.",
        unit="pp", paper_value=-50.0, kind="min",
        metric=extractors.fig1_stencil_gap, full=_full()),
    FigureSpec(
        fig_id="fig13-cdf-uplift",
        paper_ref="Fig. 13",
        claim="CDF improves geomean IPC by 6.1% over the baseline "
              "core.",
        unit="%", paper_value=6.1, kind="value",
        match_tol=2.0, tolerance=6.0,
        metric=extractors.fig13_cdf_uplift, quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig13-pre-uplift",
        paper_ref="Fig. 13",
        claim="PRE (precise runahead) improves geomean IPC by 2.6%.",
        unit="%", paper_value=2.6, kind="value",
        match_tol=2.0, tolerance=6.0,
        metric=extractors.fig13_pre_uplift, quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig13-cdf-beats-pre",
        paper_ref="Fig. 13",
        claim="CDF outperforms PRE (positive geomean IPC margin).",
        unit="pp", paper_value=0.0, kind="min", tolerance=1.0,
        metric=extractors.fig13_cdf_margin, quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig13-branch-cdf-uplift",
        paper_ref="Fig. 13",
        claim="CDF gains at least 3% geomean IPC on the "
              "branch-sensitive family (bzip, astar, mcf, soplex).",
        unit="%", paper_value=3.0, kind="min",
        metric=extractors.fig13_cdf_uplift, full=_full(BRANCH_SENSITIVE)),
    FigureSpec(
        fig_id="fig13-branch-cdf-beats-pre",
        paper_ref="Fig. 13",
        claim="CDF outperforms PRE on the branch-sensitive family.",
        unit="pp", paper_value=0.0, kind="min",
        metric=extractors.fig13_cdf_margin, full=_full(BRANCH_SENSITIVE)),
    FigureSpec(
        fig_id="fig13-nab-cdf-uplift",
        paper_ref="Sec. 2.3",
        claim="nab gains at least 5% under CDF, from faster initiation "
              "of its distant misses.",
        unit="%", paper_value=5.0, kind="min",
        metric=extractors.fig13_cdf_uplift, full=_full(("nab",))),
    FigureSpec(
        fig_id="fig13-nab-pre-uplift",
        paper_ref="Sec. 2.3",
        claim="PRE gains at most 2% on nab: its misses lie too far "
              "apart for runahead to reach.",
        unit="%", paper_value=2.0, kind="max",
        metric=extractors.fig13_pre_uplift, full=_full(("nab",))),
    FigureSpec(
        fig_id="fig13-stencil-pre-beats-cdf",
        paper_ref="Fig. 13",
        claim="PRE outperforms CDF on the dense-stencil family "
              "(zeusmp, GemsFDTD, fotonik3d, roms): the CDF-over-PRE "
              "margin is at most 0.",
        unit="pp", paper_value=0.0, kind="max",
        metric=extractors.fig13_cdf_margin, full=_full(PRE_FAVOURABLE)),
    FigureSpec(
        fig_id="fig13-stencil-cdf-neutral",
        paper_ref="Fig. 13",
        claim="CDF stays within 3% of the baseline on the "
              "dense-stencil family: its chains are too dense to skip.",
        unit="%", paper_value=0.0, kind="value", match_tol=3.0,
        metric=extractors.fig13_cdf_uplift, full=_full(PRE_FAVOURABLE)),
    FigureSpec(
        fig_id="fig13-neutral-cdf-neutral",
        paper_ref="Fig. 13",
        claim="CDF stays within 4% of the baseline on the neutral "
              "family (leslie3d, sphinx, wrf, parest, omnetpp).",
        unit="%", paper_value=0.0, kind="value", match_tol=4.0,
        metric=extractors.fig13_cdf_uplift, full=_full(NEUTRAL)),
    FigureSpec(
        fig_id="fig14-cdf-mlp",
        paper_ref="Fig. 14",
        claim="CDF raises memory-level parallelism over the baseline "
              "by overlapping critical-load misses.",
        unit="x", paper_value=1.0, kind="min", tolerance=0.05,
        metric=extractors.fig14_cdf_mlp, quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig14-pre-mlp-excess",
        paper_ref="Fig. 14",
        claim="PRE's MLP exceeds CDF's — runahead prefetches "
              "wrong-chain loads that raise MLP without helping "
              "performance.",
        unit="x", paper_value=0.0, kind="min", tolerance=0.05,
        metric=extractors.fig14_pre_excess, quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig14-pre-mlp",
        paper_ref="Fig. 14",
        claim="PRE raises memory-level parallelism over the baseline.",
        unit="x", paper_value=1.0, kind="min",
        metric=extractors.fig14_pre_mlp, full=_full()),
    FigureSpec(
        fig_id="fig14-cdf-mlp-more-useful",
        paper_ref="Fig. 14",
        claim="More of CDF's MLP gain becomes speedup than of PRE's "
              "(share of the gain, over kernels whose MLP rose 10% or "
              "more).",
        unit="share", paper_value=0.0, kind="min",
        metric=extractors.fig14_useful_margin, full=_full()),
    FigureSpec(
        fig_id="fig14-pre-mlp-inflation",
        paper_ref="Fig. 14",
        claim="On at least one kernel PRE raises MLP above 1.3x for "
              "under 2% speedup: wrong-chain loads that do not help.",
        unit="kernels", paper_value=1.0, kind="min",
        metric=extractors.fig14_pre_inflated, full=_full()),
    FigureSpec(
        fig_id="fig15-cdf-traffic",
        paper_ref="Fig. 15",
        claim="CDF adds essentially no DRAM traffic over the baseline "
              "(it only reorders demand fetches).",
        unit="%", paper_value=0.0, kind="value",
        match_tol=2.0, tolerance=5.0,
        metric=extractors.fig15_cdf_traffic, quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig15-cdf-saves-vs-pre",
        paper_ref="Fig. 15",
        claim="PRE generates ~4% more DRAM traffic than CDF "
              "(speculative runahead fetches).",
        unit="%", paper_value=4.0, kind="min", tolerance=4.0,
        metric=extractors.fig15_pre_vs_cdf, quick=_quick(), full=_full(),
        note="QUICK undershoots: at scale 0.3 PRE's runahead intervals "
             "are short, so its excess traffic is smaller."),
    FigureSpec(
        fig_id="fig15-cdf-worst-traffic",
        paper_ref="Fig. 15",
        claim="CDF adds at most 5% DRAM traffic on any kernel.",
        unit="%", paper_value=5.0, kind="max",
        metric=extractors.fig15_cdf_worst_traffic, full=_full()),
    FigureSpec(
        fig_id="fig15-pre-worst-traffic",
        paper_ref="Fig. 15",
        claim="PRE adds over 5% DRAM traffic on at least one kernel.",
        unit="%", paper_value=5.0, kind="min",
        metric=extractors.fig15_pre_worst_traffic, full=_full()),
    FigureSpec(
        fig_id="fig16-cdf-energy",
        paper_ref="Fig. 16",
        claim="CDF reduces energy by 3.5% versus the baseline (fewer "
              "stall cycles at near-identical traffic).",
        unit="%", paper_value=-3.5, kind="value",
        match_tol=1.5, tolerance=4.0,
        metric=extractors.fig16_cdf_energy, quick=_quick(), full=_full()),
    FigureSpec(
        fig_id="fig16-pre-energy",
        paper_ref="Fig. 16",
        claim="PRE increases energy by 3.7% (runahead re-execution "
              "plus extra traffic).",
        unit="%", paper_value=3.7, kind="value",
        match_tol=1.5, tolerance=6.0,
        metric=extractors.fig16_pre_energy, quick=_quick(), full=_full(),
        note="QUICK undershoots (can even go slightly negative): PRE's "
             "energy overhead needs long stalls to accumulate."),
    FigureSpec(
        fig_id="fig16-cdf-saves-vs-pre",
        paper_ref="Fig. 16",
        claim="CDF consumes ~7.2% less energy than PRE.",
        unit="%", paper_value=-7.2, kind="value",
        match_tol=2.0, tolerance=6.0,
        metric=extractors.fig16_cdf_vs_pre, quick=_quick(), full=_full(),
        note="Derived from the two Fig. 16 geomeans (CDF/PRE energy "
             "ratio)."),
    FigureSpec(
        fig_id="fig16-cdf-best-energy",
        paper_ref="Fig. 16",
        claim="CDF saves at least 1% energy on its best kernel: its "
              "biggest savings come with its biggest speedups.",
        unit="%", paper_value=-1.0, kind="max",
        metric=extractors.fig16_cdf_best_energy, full=_full()),
    FigureSpec(
        fig_id="fig17-area-scaling",
        paper_ref="Fig. 17",
        claim="CDF on the 352-entry core outperforms a 45%-larger "
              "(512-entry) baseline — scaling the window is a worse "
              "deal than fetching critically.",
        unit="x", paper_value=1.0, kind="min", tolerance=0.08,
        metric=extractors.fig17_scaling,
        quick=Profile(QUICK_NAMES, QUICK_SCALE, (352, 512)),
        full=Profile(FULL_SCALING_NAMES, FULL_SCALE, (352, 512)),
        note="QUICK sits barely above 1.0: short runs under-train the "
             "CDF tables while the larger window helps immediately."),
    FigureSpec(
        fig_id="fig17-base-rob-gain",
        paper_ref="Fig. 17",
        claim="A 512-entry baseline outperforms a 192-entry one.",
        unit="x", paper_value=1.0, kind="min",
        metric=extractors.fig17_base_gain,
        full=_full(FULL_SCALING_NAMES, (192, 512))),
    FigureSpec(
        fig_id="fig17-diminishing-returns",
        paper_ref="Fig. 17",
        claim="A bigger baseline window has diminishing returns: its "
              "192->256 IPC step is at least 0.98x its 352->512 step.",
        unit="x", paper_value=0.98, kind="min",
        metric=extractors.fig17_diminishing,
        full=_full(FULL_SCALING_NAMES, FIG17_ROB_SIZES),
        note="Thin margin at FULL: 0.988 against the 0.98 bound."),
    FigureSpec(
        fig_id="fig17-cdf-every-rob",
        paper_ref="Fig. 17",
        claim="CDF keeps within 0.5% of the equal-size baseline at "
              "every ROB size from 192 to 512 (worst ROB size).",
        unit="x", paper_value=0.995, kind="min",
        metric=extractors.fig17_cdf_every_rob,
        full=_full(FULL_SCALING_NAMES, FIG17_ROB_SIZES)),
    FigureSpec(
        fig_id="fig17-cdf-gain-352",
        paper_ref="Fig. 17",
        claim="CDF outperforms the baseline at the default 352-entry "
              "ROB.",
        unit="x", paper_value=1.0, kind="min",
        metric=extractors.fig17_cdf_gain,
        full=_full(FULL_SCALING_NAMES, (352,))),
    FigureSpec(
        fig_id="fig17-energy-vs-512-base",
        paper_ref="Fig. 17",
        claim="A 512-entry baseline uses at least 0.98x the energy of "
              "CDF on the 352-entry core.",
        unit="x", paper_value=0.98, kind="min",
        metric=extractors.fig17_energy,
        full=_full(FULL_SCALING_NAMES, (352, 512))),
    FigureSpec(
        fig_id="ablation-branches-drop",
        paper_ref="Sec. 4.2",
        claim="Disabling critical-branch marking drops the geomean "
              "CDF speedup (paper: 6.1% -> 3.8%, a 2.3pp drop).",
        unit="pp", paper_value=2.3, kind="value",
        match_tol=1.0, tolerance=2.5,
        metric=extractors.ablation_branches_drop, quick=_quick(), full=_full(),
        note="QUICK undershoots the drop: short runs under-train the "
             "branch criticality tables in both arms."),
    FigureSpec(
        fig_id="ablation-branches-off-uplift",
        paper_ref="Sec. 4.2",
        claim="Without critical-branch marking CDF still improves "
              "geomean IPC (paper: +3.8%): loads alone help.",
        unit="%", paper_value=0.0, kind="min",
        metric=extractors.ablation_branches_off, full=_full()),
    FigureSpec(
        fig_id="ablation-branches-family-drop",
        paper_ref="Sec. 4.2",
        claim="The drop concentrates in the branch-sensitive family: "
              "at least 1pp there.",
        unit="pp", paper_value=1.0, kind="min",
        metric=extractors.ablation_branches_drop,
        full=_full(BRANCH_SENSITIVE)),
    FigureSpec(
        fig_id="ablation-partitioning-margin",
        paper_ref="Sec. 3.5",
        claim="Dynamic backend partitioning keeps within 1.5pp of a "
              "static 50/50 split in geomean speedup.",
        unit="pp", paper_value=-1.5, kind="min",
        metric=extractors.partitioning_margin, full=_full(PARTITIONING_NAMES),
        note="Thin margin at FULL: -1.1pp against the -1.5pp bound."),
    FigureSpec(
        fig_id="ablation-partitioning-uplift",
        paper_ref="Sec. 3.5",
        claim="With dynamic partitioning CDF gains over 2% geomean IPC "
              "on the partitioning subset.",
        unit="%", paper_value=2.0, kind="min",
        metric=extractors.partitioning_uplift, full=_full(PARTITIONING_NAMES)),
    FigureSpec(
        fig_id="ablation-partitioning-milc-lbm",
        paper_ref="Sec. 3.5",
        claim="Dynamic partitioning keeps within 0.5pp of the static "
              "split on milc and lbm, where a 50/50 split is wrong "
              "(worst of the two).",
        unit="pp", paper_value=-0.5, kind="min",
        metric=extractors.partitioning_worst_kernel,
        full=_full(("milc", "lbm"))),
    FigureSpec(
        fig_id="ablation-thresholds-margin",
        paper_ref="Sec. 3.2",
        claim="Adaptive strict/permissive CCT thresholds keep within "
              "0.5pp of strict-only thresholds in geomean speedup.",
        unit="pp", paper_value=-0.5, kind="min",
        metric=extractors.thresholds_margin, full=_full(THRESHOLD_NAMES)),
    FigureSpec(
        fig_id="ablation-thresholds-uplift",
        paper_ref="Sec. 3.2",
        claim="With adaptive thresholds CDF gains over 2% geomean IPC "
              "on the threshold subset.",
        unit="%", paper_value=2.0, kind="min",
        metric=extractors.thresholds_uplift, full=_full(THRESHOLD_NAMES)),
    FigureSpec(
        fig_id="ablation-nc-uop-cache",
        paper_ref="Sec. 3.3",
        claim="The rejected Non-Critical Uop Cache moves the geomean "
              "CDF speedup by less than 4pp either way: non-critical "
              "uops are not fetch-bound.",
        unit="pp", paper_value=0.0, kind="value", match_tol=4.0,
        metric=extractors.nc_uop_cache, full=_full(NC_CACHE_NAMES)),
    FigureSpec(
        fig_id="ablation-disambiguation-base",
        paper_ref="Sec. 3.5",
        claim="Conservative memory disambiguation never speeds the "
              "baseline up: worst conservative/oracle IPC at most "
              "1.01x.",
        unit="x", paper_value=1.01, kind="max",
        metric=extractors.disambiguation_base,
        full=_full(DISAMBIGUATION_NAMES)),
    FigureSpec(
        fig_id="ablation-disambiguation-cdf",
        paper_ref="Sec. 3.5",
        claim="Under conservative disambiguation CDF keeps at least "
              "0.97x of its baseline's IPC on every kernel.",
        unit="x", paper_value=0.97, kind="min",
        metric=extractors.disambiguation_cdf,
        full=_full(DISAMBIGUATION_NAMES)),
    FigureSpec(
        fig_id="ablation-disambiguation-retired",
        paper_ref="Sec. 3.5",
        claim="CDF under conservative disambiguation retires the "
              "oracle baseline's measured uops to within 6 (one retire "
              "group of warm-up snapshot granularity).",
        unit="uops", paper_value=6.0, kind="max",
        metric=extractors.disambiguation_retired,
        full=_full(DISAMBIGUATION_NAMES)),
    FigureSpec(
        fig_id="ext-static-hints-margin",
        paper_ref="Sec. 6",
        claim="Profile-guided chain hints cost CDF at most 1pp of "
              "geomean speedup on finite runs.",
        unit="pp", paper_value=-1.0, kind="min",
        metric=extractors.hints_margin, full=_full(HINT_NAMES)),
    FigureSpec(
        fig_id="ext-static-hints-residency",
        paper_ref="Sec. 6",
        claim="Hinted CDF keeps at least 0.95x of hardware CDF's "
              "CDF-mode cycles on every kernel.",
        unit="x", paper_value=0.95, kind="min",
        metric=extractors.hints_residency, full=_full(HINT_NAMES),
        note="Thin margin at FULL: 0.966 against the 0.95 bound."),
    FigureSpec(
        fig_id="ext-longlat-loads-only",
        paper_ref="Sec. 6",
        claim="On an FDIV-chain-bound kernel with no misses, CDF with "
              "load criticality only stays within 2% of the baseline.",
        unit="%", paper_value=0.0, kind="value", match_tol=2.0,
        metric=extractors.longlat_loads_only, full=_full(LONGLAT_NAMES)),
    FigureSpec(
        fig_id="ext-longlat-uplift",
        paper_ref="Sec. 6",
        claim="Marking long-latency FDIV roots critical lets CDF gain "
              "over 20% on that kernel.",
        unit="%", paper_value=20.0, kind="min",
        metric=extractors.longlat_uplift, full=_full(LONGLAT_NAMES)),
    FigureSpec(
        fig_id="ext-memory-cdf-nominal",
        paper_ref="Sec. 2.4",
        claim="At nominal DDR4-2400 timing CDF improves geomean IPC on "
              "the memory-speed subset.",
        unit="%", paper_value=0.0, kind="min",
        metric=extractors.memory_cdf_nominal, full=_full(MEMORY_SPEED_NAMES)),
    FigureSpec(
        fig_id="ext-memory-pre-nominal",
        paper_ref="Sec. 2.4",
        claim="At nominal DDR4-2400 timing PRE improves geomean IPC on "
              "the memory-speed subset.",
        unit="%", paper_value=0.0, kind="min",
        metric=extractors.memory_pre_nominal, full=_full(MEMORY_SPEED_NAMES)),
    FigureSpec(
        fig_id="ext-memory-pre-erodes",
        paper_ref="Sec. 2.4",
        claim="PRE's gain erodes with 4x faster memory: shorter stalls "
              "leave less time to run ahead.",
        unit="pp", paper_value=0.0, kind="min",
        metric=extractors.memory_pre_erodes, full=_full(MEMORY_SPEED_NAMES)),
    FigureSpec(
        fig_id="ext-memory-pre-loses-more",
        paper_ref="Sec. 2.4",
        claim="Going to 4x faster memory, PRE loses at least as much "
              "gain as CDF, within 1pp.",
        unit="pp", paper_value=-1.0, kind="min",
        metric=extractors.memory_pre_loses_more,
        full=_full(MEMORY_SPEED_NAMES)),
    FigureSpec(
        fig_id="ext-mshr-scaling",
        paper_ref="Sec. 2.1",
        claim="CDF gains at least as much with 16 and with 32 L1D MSHRs "
              "as with 4: the miss buffer caps window expansion.",
        unit="pp", paper_value=0.0, kind="min",
        metric=extractors.mshr_scaling, full=_full(MSHR_NAMES)),
    FigureSpec(
        fig_id="ext-simpoint-pre-inflation",
        paper_ref="Sec. 4.2",
        claim="Evaluating only the memory phase (a single SimPoint) "
              "overstates PRE's gain over the whole program.",
        unit="pp", paper_value=0.0, kind="min",
        metric=extractors.simpoint_pre_inflation, full=_full(SIMPOINT_NAMES)),
    FigureSpec(
        fig_id="ext-simpoint-cdf-inflation",
        paper_ref="Sec. 4.2",
        claim="Evaluating only the memory phase overstates CDF's gain "
              "over the whole program.",
        unit="pp", paper_value=0.0, kind="min",
        metric=extractors.simpoint_cdf_inflation, full=_full(SIMPOINT_NAMES)),
    FigureSpec(
        fig_id="ext-simpoint-compute-pre",
        paper_ref="Sec. 4.2",
        claim="PRE stays within 3% of the baseline on the compute "
              "phase.",
        unit="%", paper_value=0.0, kind="value", match_tol=3.0,
        metric=extractors.simpoint_compute_pre, full=_full(SIMPOINT_NAMES)),
    FigureSpec(
        fig_id="ext-simpoint-compute-cdf",
        paper_ref="Sec. 4.2",
        claim="CDF stays within 3% of the baseline on the compute "
              "phase.",
        unit="%", paper_value=0.0, kind="value", match_tol=3.0,
        metric=extractors.simpoint_compute_cdf, full=_full(SIMPOINT_NAMES)),
    FigureSpec(
        fig_id="ext-simpoint-pre-between",
        paper_ref="Sec. 4.2",
        claim="Whole-program PRE gain lies between the compute phase's "
              "(less 2pp) and the memory phase's (headroom to the "
              "nearer bound).",
        unit="pp", paper_value=0.0, kind="min",
        metric=extractors.simpoint_pre_between, full=_full(SIMPOINT_NAMES)),
    FigureSpec(
        fig_id="table1-area",
        paper_ref="Table 1",
        claim="CDF's structures (CCT, mask cache, critical uop cache, "
              "FIFOs) add 3.2% area over the baseline core.",
        unit="%", paper_value=3.2, kind="value",
        match_tol=0.3, tolerance=1.0,
        metric=extractors.table1_area, quick=ANALYTIC, full=ANALYTIC,
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
    """An implemented claim's extractor produced no finite value.

    Such a value has no honest verdict: ``None`` would count as planned,
    NaN as diverged, and a geomean over an empty or zero-valued input
    (a zero-IPC baseline, a mode with no DRAM traffic) has no value at
    all, so the run fails instead.
    """


def run_claim(spec: FigureSpec, mode: str,
              seed: int = DEFAULT_SEED) -> ClaimResult:
    """Run one claim's metric under its *mode* profile.

    Raises :class:`ClaimValueError` when an implemented claim's value
    is ``None`` or not finite, or when its extractor raises
    :class:`~repro.stats.metrics.MetricDomainError`.
    """
    if spec.status != "implemented":
        return ClaimResult(spec.fig_id, mode, None, PLANNED, 0.0, ())
    profile = spec.profile(mode)
    try:
        value = spec.metric(profile, seed)
    except MetricDomainError as error:
        raise ClaimValueError(
            f"claim {spec.fig_id} [{mode}]: {error}") from error
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
    nothing is ever silently skipped.  A whole-registry QUICK run
    leaves out the FULL-only claims (see :func:`full_only_ids`)."""
    if fig_ids:
        specs = [get_spec(fig_id) for fig_id in fig_ids]
    else:
        specs = [spec for spec in REGISTRY
                 if not (mode == "quick" and spec.full_only)]
    results = []
    for spec in specs:
        if progress is not None and spec.status == "implemented":
            profile = spec.profile(mode)
            if profile is ANALYTIC:
                what = f"{spec.fig_id} (analytic)"
            else:
                what = (f"{spec.fig_id} [{mode}] scale={profile.scale} "
                        f"({len(profile.names)} kernels)")
            progress(what)
        results.append(run_claim(spec, mode, seed=seed))
    return results


def full_only_ids() -> List[str]:
    """The claims that only a FULL run checks."""
    return [spec.fig_id for spec in REGISTRY if spec.full_only]


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
        if spec.full_only:
            shape = "full only"
        else:
            quick = spec.profile("quick")
            shape = (f"{len(quick.names)} kernels @ {quick.scale}"
                     if quick.names else "analytic")
        band = (f"tol {format_value(spec.unit, spec.tolerance)}"
                if spec.kind != "value" else
                f"match +/-{spec.match_tol:g}, tol +/-{spec.tolerance:g}")
        rows.append((spec.fig_id, spec.paper_ref, spec.paper_text(),
                     shape, band))
    return render_table(
        "figure claim registry (quick profile shown; --full runs every "
        "implemented claim at scale 1.0)",
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


def default_baseline(mode: str) -> str:
    """The committed baseline a *mode* run is pinned to."""
    return DEFAULT_FULL_BASELINE if mode == "full" else DEFAULT_BASELINE


def load_baseline(path: str = DEFAULT_BASELINE) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def check_baseline(record: dict, baseline: dict) -> List[str]:
    """Diff a bench record against the pinned baseline.

    Values are deterministic in both profiles (fixed seed, no
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
    the paper reference, the paper's number, the verdict gate, whether
    only a FULL run checks it, and the exact command that reproduces
    it.  Regenerated by
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
            status = ("implemented, FULL only" if spec.full_only
                      else "implemented")
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
