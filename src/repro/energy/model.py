"""Whole-core energy and area accounting.

`EnergyModel.compute(result)` turns a pipeline's event counters into an
energy figure (and fills ``result.energy_nj``). The structure inventory
mirrors Table 1; the CDF structures are included only when the mode that
produced the result had them active, so the Fig. 16/17 comparisons
charge CDF for its structures and its ~3.2% area overhead.

The paper puts CDF's structure energy at ~2%; this model charges less.
Summed over the 18 kernels at scale 1.0 (seed 42), accesses to the CDF
structures draw 0.39% of CDF's total energy, 0.45% with their leakage.
``tests/energy/test_energy_model.py`` bounds the share only at < 10% of
one synthetic result's total.
"""

from __future__ import annotations

from typing import Dict

from ..config import SimConfig
from ..stats import SimResult
from .structures import (
    CORE_STATIC_PJ_PER_CYCLE,
    CORE_UOP_PJ,
    DRAM_ACCESS_PJ,
    Structure,
)


def _baseline_structures(config: SimConfig) -> Dict[str, Structure]:
    core = config.core
    return {
        "l1i": Structure("l1i", config.l1i.size_bytes, ports=1),
        "l1d": Structure("l1d", config.l1d.size_bytes, ports=2),
        "llc": Structure("llc", config.llc.size_bytes, ports=1),
        "bpred": Structure("bpred", 64 * 1024, ports=1),
        "btb": Structure("btb", 4096 * 8, ports=1),
        "rat": Structure("rat", 32 * 8, ports=core.rename_width,
                         kind="regfile"),
        "rob": Structure("rob", core.rob_size * 16,
                         ports=core.retire_width, kind="regfile"),
        "rs": Structure("rs", core.rs_size * 20, ports=core.issue_width,
                        kind="cam"),
        "prf": Structure("prf", core.num_phys_regs * 8,
                         ports=core.issue_width * 2, kind="regfile"),
        "lq": Structure("lq", core.lq_size * 12, ports=2, kind="cam"),
        "sq": Structure("sq", core.sq_size * 12, ports=2, kind="cam"),
    }


def _cdf_structures(config: SimConfig) -> Dict[str, Structure]:
    cdf = config.cdf
    return {
        "cct": Structure("cct", 64 * 2, ports=1),           # 64B x2 tables
        "mask_cache": Structure("mask_cache", 4 * 1024, ports=1),
        "uop_cache": Structure("uop_cache", 18 * 1024, ports=1),
        "fill_buffer": Structure("fill_buffer", 16 * 1024, ports=1),
        "dbq": Structure("dbq", 1024, ports=1),
        "cmq": Structure("cmq", 512, ports=1),
        "crit_rat": Structure("crit_rat", 32 * 8,
                              ports=config.core.rename_width,
                              kind="regfile"),
    }


#: counter name -> (structure, accesses per count)
_BASE_EVENTS = {
    "l1i_accesses": ("l1i", 1.0),
    "l1d_accesses": ("l1d", 1.0),
    "llc_accesses": ("llc", 1.0),
    "bpred_lookups": ("bpred", 1.0),
    "btb_lookups": ("btb", 1.0),
    "rename_uops": ("rat", 1.0),
    "rob_writes": ("rob", 1.0),
    "rob_reads": ("rob", 1.0),
    "wakeup_broadcasts": ("rs", 1.0),
    "prf_reads": ("prf", 1.0),
    "prf_writes": ("prf", 1.0),
    "lq_searches": ("lq", 1.0),
    "sq_searches": ("sq", 1.0),
}

_CDF_EVENTS = {
    "cct_updates": ("cct", 1.0),
    "uop_cache_reads": ("uop_cache", 1.0),
    "fill_walk_uops": ("fill_buffer", 1.0),
    "crit_rename_uops": ("crit_rat", 1.0),
    "replayed_uops": ("rat", 1.0),          # replay updates the regular RAT
    "dbq_pops": ("dbq", 2.0),               # one push + one pop
    "crit_fetch_uops": ("cmq", 2.0),
}


class EnergyBreakdown:
    """Per-category energy totals in nanojoules."""

    def __init__(self) -> None:
        self.dynamic_nj: Dict[str, float] = {}
        self.static_nj = 0.0
        self.dram_nj = 0.0
        self.core_uop_nj = 0.0

    @property
    def total_nj(self) -> float:
        return (sum(self.dynamic_nj.values()) + self.static_nj
                + self.dram_nj + self.core_uop_nj)


class EnergyModel:
    """Counts events against the structure inventory."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.structures = _baseline_structures(config)
        self.cdf_structures = _cdf_structures(config)

    def compute(self, result: SimResult,
                include_cdf_structures: bool = None) -> EnergyBreakdown:
        """Fill ``result.energy_nj`` and return the breakdown."""
        if include_cdf_structures is None:
            include_cdf_structures = result.mode in ("cdf", "pre")
        breakdown = EnergyBreakdown()
        counters = result.counters
        inventory = dict(self.structures)
        events = dict(_BASE_EVENTS)
        if include_cdf_structures:
            inventory.update(self.cdf_structures)
            events.update(_CDF_EVENTS)
        for counter_name, (structure_name, weight) in events.items():
            count = counters.get(counter_name, 0)
            if not count:
                continue
            structure = inventory[structure_name]
            energy_nj = count * weight * structure.access_energy_pj() / 1000
            breakdown.dynamic_nj[structure_name] = (
                breakdown.dynamic_nj.get(structure_name, 0.0) + energy_nj)

        dram_transfers = (sum(result.dram_reads.values())
                          + sum(result.dram_writes.values()))
        breakdown.dram_nj = dram_transfers * DRAM_ACCESS_PJ / 1000

        executed = counters.get("rename_uops", 0) \
            + counters.get("crit_rename_uops", 0)
        breakdown.core_uop_nj = executed * CORE_UOP_PJ / 1000

        leakage_pj_per_cycle = CORE_STATIC_PJ_PER_CYCLE + sum(
            s.leakage_nw() for s in inventory.values()) * 0.001
        breakdown.static_nj = result.cycles * leakage_pj_per_cycle / 1000

        result.energy_nj = breakdown.total_nj
        return breakdown

    # ------------------------------------------------------------------ area
    def baseline_area_mm2(self) -> float:
        return sum(s.area_mm2() for s in self.structures.values())

    def cdf_extra_area_mm2(self) -> float:
        return sum(s.area_mm2() for s in self.cdf_structures.values())

    def cdf_area_overhead(self) -> float:
        """Fractional area overhead of the CDF structures (paper: ~3.2%)."""
        return self.cdf_extra_area_mm2() / self.baseline_area_mm2()
