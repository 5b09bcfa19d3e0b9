"""Central registry of every event-counter key the simulator may emit.

``Counters`` is a string-keyed bag, which makes adding a counter a
one-liner — and makes a typo'd key a silent bug: ``bump("fetch_uop")``
fabricates a brand-new counter instead of failing, and every consumer of
the real key (energy model, figures, cache fingerprints) quietly reads
zero.  This module closes that hole:

* every legal key is declared here, once, with a one-line description
  (the table in ``docs/analysis.md`` is generated from it);
* :meth:`repro.stats.counters.Counters.bump` validates keys against the
  registry — unknown keys raise :class:`UnknownCounterError`;
* the ``STAT001`` simlint rule checks the same contract statically, so
  typos fail in CI before any simulation runs.

Keys whose name embeds a runtime value (the per-resource dispatch-stall
breakdowns) are declared as *dynamic* counters: a ``{}`` template plus
the regular expression of legal instantiations.  The template form is
what the static checker matches f-strings against; the regex is what the
runtime validator uses.
"""

from __future__ import annotations

import re
from typing import Dict, Set

__all__ = [
    "COUNTERS",
    "DYNAMIC_COUNTERS",
    "KNOWN_KEYS",
    "UnknownCounterError",
    "is_known",
    "validate_key",
]


class UnknownCounterError(KeyError):
    """A counter key was used that the registry does not declare."""


#: Every statically-named counter key -> one-line description.
COUNTERS: Dict[str, str] = {
    # ------------------------------------------------ frontend / fetch
    "fetch_uops": "uops fetched from the I-cache path",
    "bpred_accesses": "direction-predictor accesses at fetch",
    "bpred_lookups": "branches seen by the branch unit",
    "btb_lookups": "branch-target-buffer lookups",
    "branch_mispredicts": "mispredicted branches (resolved)",
    # ------------------------------------------------ rename / dispatch
    "rename_uops": "uops renamed through the regular RAT",
    "rob_writes": "ROB allocations",
    "rob_reads": "ROB reads (retire and CCT training)",
    "wakeup_broadcasts": "RS wakeup-port broadcasts",
    "prf_reads": "physical-register-file read-port uses",
    "prf_writes": "physical-register-file write-port uses",
    # ------------------------------------------------ memory pipeline
    "lq_searches": "load-queue CAM searches",
    "sq_searches": "store-queue CAM searches",
    "store_forwards": "loads satisfied by store-to-load forwarding",
    "loads_held_by_stores": "loads stalled behind unresolved stores",
    "llc_miss_loads": "demand loads that missed the LLC",
    # ------------------------------------------------ stalls / cycles
    "full_window_stall_cycles": "cycles dispatch stalled on a full ROB",
    "stall_head_llc_miss_cycles":
        "full-window stall cycles with an LLC-missing load at ROB head",
    "idle_skipped_cycles": "cycles fast-forwarded by the event loop",
    # ------------------------------------------------ external structures
    "l1i_accesses": "L1 instruction-cache accesses",
    "l1d_accesses": "L1 data-cache accesses",
    "llc_accesses": "last-level-cache accesses",
    "dram_reads": "DRAM read bursts",
    "dram_writes": "DRAM write bursts",
    "prefetches": "prefetch requests issued",
    # ------------------------------------------------ CDF: training
    "cct_updates": "Critical Count Table training updates",
    "longlat_roots": "long-latency ALU uops rooting critical chains",
    # ------------------------------------------------ CDF: fill buffer
    "fill_walks": "fill-buffer walks started",
    "fill_walk_uops": "uops examined by fill-buffer walks",
    "fill_rejected": "fill results rejected by the density gates",
    "fill_applied": "fill results installed into mask/uop caches",
    # ------------------------------------------------ CDF: mode control
    "cdf_mode_entries": "transitions into CDF mode",
    "cdf_mode_exits": "transitions out of CDF mode",
    "cdf_mode_cycles": "cycles spent in CDF mode",
    "cdf_exit_uop_cache_miss": "CDF-mode exits forced by a uop-cache miss",
    # ------------------------------------------------ CDF: fetch/rename
    "uop_cache_reads": "Critical Uop Cache reads",
    "nc_uop_cache_reads": "Non-Critical Uop Cache reads (ablation)",
    "crit_fetch_uops": "critical uops fetched from the uop cache",
    "crit_fetch_blocked_on_critical_branch":
        "critical fetch stalled on an unresolved critical branch",
    "crit_fetch_blocked_on_noncritical_branch":
        "critical fetch stalled on an unresolved non-critical branch",
    "crit_rename_uops": "uops renamed through the critical RAT",
    "replayed_uops": "non-critical uops replayed to re-sync the RAT",
    # ------------------------------------------------ CDF: queues
    "dbq_pops": "Delayed Branch Queue pops",
    "dbq_mismatches": "DBQ entries that disagreed with fetch",
    "dbq_leftover_entries": "DBQ entries discarded at CDF-mode exit",
    # ------------------------------------------------ CDF: correctness
    "dependence_violations": "memory-dependence violations detected",
    "violation_flushed_uops": "uops flushed by violation recovery",
    "poisoned_register_sources": "critical uops with poisoned reg inputs",
    "poisoned_memory_sources": "critical loads with poisoned mem inputs",
    # ------------------------------------------------ CDF: static hints
    "static_hint_blocks": "basic blocks installed from static hints",
    "static_hints_rejected": "static hint sets rejected at load time",
    # ------------------------------------------------ PRE comparator
    "runahead_intervals": "runahead intervals entered",
    "runahead_uops": "uops examined during runahead",
    "runahead_prefetches": "prefetches issued by runahead chains",
    "runahead_wrong_address": "runahead chains producing wrong addresses",
    "runahead_wrongpath_intervals": "runahead intervals down the wrong path",
    "runahead_stopped_uncached_bb": "runahead stops at uncached blocks",
    "runahead_chain_truncated": "runahead chains truncated by RS limits",
    "runahead_mshr_rejected": "runahead prefetches rejected by MSHRs",
    # ------------------------------------------------ runtime verification
    "verify_retired_uops": "retired uops seen by the invariant checker",
    "verify_oracle_uops": "retired uops cross-checked by the oracle",
    "verify_dispatch_checks": "dispatch-time invariant evaluations",
    "verify_issue_checks": "issue-time invariant evaluations",
    "verify_cycle_checks": "per-cycle occupancy sweeps (level >= 2)",
    "verify_structural_scans": "full structural ROB/LSQ/RS scans",
    "verify_cache_scans": "cache tag-store sanity scans",
    # ------------------------------------------------ observability
    "obs_samples": "occupancy-gauge samples taken (obs_level >= 1)",
    "obs_mem_events": "memory-request events recorded (obs_level >= 2)",
    "obs_uop_events": "uop lifecycle events recorded (obs_level >= 2)",
}

#: Dynamic counter families: ``{}``-template (what the static checker
#: matches f-strings against) -> regex of legal instantiations (what the
#: runtime validator checks concrete keys against).
DYNAMIC_COUNTERS: Dict[str, str] = {
    # per-resource dispatch-stall breakdown (core.pipeline._account_stall;
    # reasons from the dispatch gates plus the CDF pipeline's
    # cmq_wait back-pressure state)
    "dispatch_stall_{}_cycles":
        r"dispatch_stall_(rob|rs|lq|sq|prf|cmq_wait)_cycles",
    # critical-partition stall breakdown (cdf.cdf_pipeline; adds the
    # CDF-only rat_copy/cmq resources)
    "crit_dispatch_stall_{}_cycles":
        r"crit_dispatch_stall_(rob|rs|lq|sq|prf|rat_copy|cmq)_cycles",
}

_DYNAMIC_PATTERNS = [re.compile(pattern)
                     for pattern in DYNAMIC_COUNTERS.values()]

#: Mutable memo of every key validated so far.  ``Counters.bump`` does a
#: plain membership test against this set on its hot path; dynamic keys
#: are added on first successful validation so the regex matching cost is
#: paid once per distinct key, not once per bump.
KNOWN_KEYS: Set[str] = set(COUNTERS)


def is_known(key: str) -> bool:
    """True if *key* is declared (statically or via a dynamic family)."""
    if key in KNOWN_KEYS:
        return True
    for pattern in _DYNAMIC_PATTERNS:
        if pattern.fullmatch(key):
            # A monotonic memo: is_known stays a pure function of key.
            KNOWN_KEYS.add(key)
            return True
    return False


def validate_key(key: str) -> None:
    """Raise :class:`UnknownCounterError` unless *key* is declared."""
    if not is_known(key):
        raise UnknownCounterError(
            f"counter key {key!r} is not declared in "
            f"repro.stats.registry; declare it in COUNTERS (or a "
            f"DYNAMIC_COUNTERS family) or fix the typo.")
