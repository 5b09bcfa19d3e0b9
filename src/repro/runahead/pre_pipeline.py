"""Precise Runahead (PRE) pipeline — the paper's comparator (Sec. 4.1).

PRE enters runahead mode on a full-window stall whose ROB head is a load
waiting on main memory. During the stall it executes the stored dependence
chains of *future* stalling loads using free reservation stations and
physical registers (hence small enter/exit overhead), issuing their memory
accesses as prefetches. Runahead work is speculative and discarded; its
two costs, which the paper's Figs. 14-16 quantify, are modelled:

* **duplicate execution** — every chain uop executed in runahead is
  re-executed by the normal pipeline later (energy);
* **stale chains** — chains whose inputs depend on in-flight misses
  produce wrong addresses with ``stale_chain_fraction`` probability,
  generating useless DRAM traffic and cache pollution; and chains that
  feed on a runahead load that cannot return within the stall window are
  skipped (no MLP from dependent chains).

Per the paper's methodology, chain construction reuses the CDF fill
infrastructure with the Stalling Slice Table providing the roots: only
loads that actually caused full-window stalls are marked.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

from ..config import SimConfig
from ..core.pipeline import BaselinePipeline
from ..core.rob import ISSUED, RobEntry
from ..cdf.fill_buffer import FillBuffer
from ..cdf.mask_cache import MaskCache
from ..cdf.uop_cache import CriticalUopCache
from ..isa.dynuop import DynUop
from ..isa.program import Program
from .sst import StallingSliceTable

#: Wrong-address runahead accesses are displaced by up to this many lines.
_WRONG_ADDR_SPREAD = 1 << 18


class PREPipeline(BaselinePipeline):
    """Baseline core + Precise Runahead."""

    def __init__(self, trace: Sequence[DynUop], config: SimConfig,
                 program: Program, benchmark: str = "bench",
                 **kwargs) -> None:
        super().__init__(trace, config, benchmark, **kwargs)
        if not config.pre.enabled:
            raise ValueError("PREPipeline requires config.pre.enabled")
        self.pre_cfg = config.pre
        cdf = config.cdf   # geometry shared with the CDF infrastructure
        self.program = program
        self.bb_start = program.bb_start_table()
        self.sst = StallingSliceTable()
        self.fill_buffer = FillBuffer(cdf.fill_buffer_entries)
        self.mask_cache = MaskCache(cdf.mask_cache_entries,
                                    cdf.mask_cache_ways)
        self.uop_cache = CriticalUopCache(cdf.uop_cache_entries,
                                          cdf.uop_cache_ways,
                                          cdf.uops_per_trace)
        self._retired_since_fill = 0
        self._retired_since_mask_reset = 0
        self._record_from = self.fill_buffer.window_start(
            cdf.fill_interval_uops)
        self._rng = random.Random(config.seed)

        self.in_runahead = False
        self.ra_ptr = 0
        # Traversal budget in *trace* uops: runahead walks the instruction
        # stream at fetch width during the stall, so chains further away
        # than stall_cycles x fetch_width are unreachable (paper Sec. 2.4
        # point (c)).
        self._ra_traversal_budget = 0.0
        self._ra_budget_uops = 0.0
        # Per-interval chain dataflow state. Runahead chains execute with
        # the register values available at stall time: a chain value that
        # transitively depends on an in-flight miss, on a future uop the
        # chain does not include, or on a runahead load that cannot return
        # within the stall window is *stale* — the source of PRE's wrong
        # addresses and extra traffic (paper Sec. 2.4 point (d)).
        self._ra_tainted: set = set()
        self._ra_value_ready: Dict[int, int] = {}
        self._ra_memo: Dict[int, Optional[int]] = {}
        # Stale chains already issued once: the engine filters known-bad
        # chains instead of spraying a new wrong address every interval.
        self._ra_wrong_issued: set = set()
        # Runahead fetch follows branch *predictions*: beyond a branch the
        # predictor would get wrong, chains are off-path (paper Sec. 2.4
        # point (b)). Per-PC mispredict rates observed at fetch drive a
        # seeded coin per traversed conditional branch.
        self._branch_stats: Dict[int, list] = {}
        self._ra_wrongpath = False

    def _mode_name(self) -> str:
        return "pre"

    def obs_gauges(self, cycle: int):
        """Baseline gauges plus runahead state (active interval flag and
        cumulative runahead prefetches) for stall-anatomy traces."""
        gauges = super().obs_gauges(cycle)
        gauges["runahead"] = 1 if self.in_runahead else 0
        gauges["runahead_prefetches"] = \
            self.counters["runahead_prefetches"]
        return gauges

    def _note_branch_outcome(self, uop: DynUop, outcome) -> None:
        if not uop.is_cond_branch:
            return
        stats = self._branch_stats.get(uop.pc)
        if stats is None:
            stats = [0, 0]
            self._branch_stats[uop.pc] = stats
        stats[0] += 1
        if outcome.mispredicted:
            stats[1] += 1

    def _mispredict_rate(self, pc: int) -> float:
        stats = self._branch_stats.get(pc)
        if not stats or stats[0] < 8:
            return 0.0
        return stats[1] / stats[0]

    # -------------------------------------------------------- slice training
    def _on_retire(self, entry: RobEntry, cycle: int) -> None:
        cdf = self.config.cdf
        if self._retired_since_fill >= self._record_from:
            uop = entry.uop
            self.fill_buffer.record_uop(uop, self.bb_start[uop.pc],
                                        uop.is_load and uop.pc in self.sst)
        self._retired_since_fill += 1
        self._retired_since_mask_reset += 1
        if self._retired_since_mask_reset >= cdf.mask_cache_reset_interval:
            self.mask_cache.reset()
            self._retired_since_mask_reset = 0
        if self._retired_since_fill >= cdf.fill_interval_uops \
                and self.fill_buffer.full:
            self._do_fill(cycle)
        if self.in_runahead:
            # Retirement means the stalling head drained: interval over.
            self._end_runahead()

    def _do_fill(self, cycle: int) -> None:
        cdf = self.config.cdf
        result = self.fill_buffer.walk(self.mask_cache.snapshot_masks())
        self.counters.bump("fill_walks")
        self.counters.bump("fill_walk_uops", result.total)
        valid_from = cycle + cdf.fill_latency_cycles
        for bb, mask in result.bb_masks.items():
            merged = self.mask_cache.accumulate(bb, mask)
            self.uop_cache.fill(bb, merged,
                                result.bb_ends_in_branch.get(bb, False),
                                valid_from)
        self.counters.bump("fill_applied")
        self._retired_since_fill = 0

    # ------------------------------------------------------------- runahead
    def _on_stall_cycles(self, cycle: int, reason: str, weight: int) -> None:
        if reason != "rob" or not self.rob:
            return
        head = self.rob[0]
        if not (head.uop.is_load and head.llc_miss
                and head.state == ISSUED):
            return
        self.sst.add(head.uop.pc)
        if not self.in_runahead:
            self.in_runahead = True
            self.counters.bump("runahead_intervals")
            # Each interval re-executes chains from the stall point with
            # the registers available *now* (PRE restarts runahead from
            # scratch; already-prefetched lines are found in the cache).
            self.ra_ptr = self.fetch_seq
            self._ra_tainted = set()
            self._ra_value_ready = {}
            self._ra_memo = {}
            self._ra_wrongpath = False
            weight = max(0, weight - self.pre_cfg.enter_exit_overhead)
        self._ra_budget_uops += weight * self.pre_cfg.chain_issue_width
        self._ra_traversal_budget += weight * self.fetch_width
        self._runahead_walk(cycle, head.complete_cycle)

    def _end_runahead(self) -> None:
        self.in_runahead = False
        self._ra_budget_uops = 0.0
        self._ra_traversal_budget = 0.0

    def _runahead_walk(self, cycle: int, stall_end: int) -> None:
        """Execute future stalling-slice chains during the stall window."""
        trace = self.trace
        total = len(trace)
        bb_start = self.bb_start
        max_ptr = self.fetch_seq + self.pre_cfg.max_runahead_distance
        current_entry = None
        current_bb = -1
        while self._ra_budget_uops >= 1.0 \
                and self._ra_traversal_budget >= 1.0 \
                and self.ra_ptr < total and self.ra_ptr < max_ptr:
            uop = trace[self.ra_ptr]
            self.ra_ptr += 1
            self._ra_traversal_budget -= 1.0
            bb = bb_start[uop.pc]
            if bb != current_bb:
                current_bb = bb
                current_entry = self.uop_cache.lookup(bb, cycle)
                if current_entry is None:
                    # Without a stored trace the runahead engine cannot
                    # compute the next fetch address: the chain ends here.
                    self.ra_ptr -= 1
                    self.counters.bump("runahead_stopped_uncached_bb")
                    return
                self.counters["uop_cache_reads"] += 1
            if uop.is_cond_branch and not self._ra_wrongpath:
                # The engine predicts every branch it crosses; a branch
                # the predictor gets wrong puts the rest of this interval
                # on the wrong path (Sec. 2.4 point (b)).
                if self._rng.random() < self._mispredict_rate(uop.pc):
                    self._ra_wrongpath = True
                    self.counters.bump("runahead_wrongpath_intervals")
            if not (current_entry.mask >> (uop.pc - bb)) & 1:
                continue
            self._ra_budget_uops -= 1.0
            self.counters["runahead_uops"] += 1
            self._runahead_execute(cycle, uop, stall_end)

    def _chain_inputs(self, uop: DynUop, cycle: int, stall_end: int):
        """Resolve a chain uop's inputs; returns (tainted, ready_cycle).

        A chain input is *stale* (tainting the whole chain) when it comes
        from an earlier tainted chain uop, from a future uop the chain
        does not include, from an in-flight miss that will not return
        within the stall window, or (for loads) from a store that has not
        executed.
        """
        tainted = False
        ready = cycle
        if uop.is_load and uop.store_dep >= 0 \
                and uop.store_dep >= self.fetch_seq:
            tainted = True   # forwarding store not executed yet
        for dep in uop.src_deps:
            if dep in self._ra_tainted:
                return True, ready
            produced_at = self._ra_value_ready.get(dep)
            if produced_at is not None:
                if produced_at >= stall_end:
                    return True, ready  # arrives after runahead ends
                ready = max(ready, produced_at)
                continue
            if dep >= self.fetch_seq:
                # Future uop outside the stored chain: unavailable.
                return True, ready
            available_at = self._inflight_available(dep, cycle, stall_end,
                                                    self._ra_memo, 0)
            if available_at is None:
                return True, ready
            ready = max(ready, available_at)
        return tainted, ready

    def _inflight_available(self, seq: int, cycle: int, stall_end: int,
                            memo: Dict[int, Optional[int]],
                            depth: int) -> Optional[int]:
        """When will in-flight value *seq* be readable by a runahead
        chain? None if it cannot arrive within the stall window.

        Walks the in-flight dependence graph transitively (memoised per
        interval): an un-issued ALU op behind a pending miss is just as
        stale as the miss itself.
        """
        if seq in memo:
            return memo[seq]
        if depth > 400:
            memo[seq] = None
            return None
        entry = self.inflight.get(seq)
        if entry is None:
            memo[seq] = cycle          # retired: value architectural
            return cycle
        uop = entry.uop
        if entry.complete_cycle >= 0:  # issued: completion known
            result = None if (uop.is_load
                              and entry.complete_cycle >= stall_end) \
                else max(cycle, entry.complete_cycle)
            memo[seq] = result
            return result
        # Not issued yet: availability follows its own inputs.
        worst = cycle
        for dep in uop.src_deps:
            sub = self._inflight_available(dep, cycle, stall_end, memo,
                                           depth + 1)
            if sub is None:
                memo[seq] = None
                return None
            worst = max(worst, sub)
        if uop.is_load:
            # Unknown hit/miss: assume it needs a memory round trip.
            worst += self.config.llc.latency + self.mem.dram.t_cl
        else:
            worst += uop.exec_lat + 1
        result = None if worst >= stall_end else worst
        memo[seq] = result
        return result

    def _runahead_execute(self, cycle: int, uop: DynUop,
                          stall_end: int) -> None:
        """Execute one chain uop with stall-time register values."""
        if self._ra_wrongpath:
            # Off-path execution: register state is garbage; loads go to
            # wrong addresses (pollution + traffic), nothing is useful.
            self._ra_tainted.add(uop.seq)
            if uop.is_load and uop.seq not in self._ra_wrong_issued \
                    and self._rng.random() < self.pre_cfg.stale_chain_fraction:
                self._ra_wrong_issued.add(uop.seq)
                self._issue_runahead_access(cycle, uop, wrong=True)
            return
        tainted, ready = self._chain_inputs(uop, cycle, stall_end)
        if not uop.is_load:
            if tainted:
                self._ra_tainted.add(uop.seq)
            elif uop.writes_reg:
                self._ra_value_ready[uop.seq] = ready + 1
            return
        if tainted:
            self._ra_tainted.add(uop.seq)
            # A stale address chain either issues a wrong access (extra
            # traffic, cache pollution: paper Sec. 2.4 point (d)) or is
            # squashed by the engine; each dynamic chain is only ever
            # issued wrongly once.
            if uop.seq not in self._ra_wrong_issued \
                    and self._rng.random() < self.pre_cfg.stale_chain_fraction:
                self._ra_wrong_issued.add(uop.seq)
                self._issue_runahead_access(cycle, uop, wrong=True)
            else:
                self.counters.bump("runahead_chain_truncated")
            return
        completion = self._issue_runahead_access(ready, uop, wrong=False)
        if completion is not None:
            self._ra_value_ready[uop.seq] = completion
        else:
            self._ra_tainted.add(uop.seq)

    def _issue_runahead_access(self, cycle: int, uop: DynUop,
                               wrong: bool) -> Optional[int]:
        """Send one runahead access to memory; returns its completion."""
        # Leave headroom in the LLC MSHRs for demand misses: runahead is
        # speculative and must not starve the stalling window.
        free_mshrs = (self.mem.llc_mshrs.capacity
                      - len(self.mem.llc_mshrs))
        if free_mshrs <= self.pre_cfg.reserved_llc_mshrs:
            self.counters.bump("runahead_mshr_rejected")
            return None
        addr = uop.mem_addr
        if wrong:
            line = self.mem.line_of(addr)
            line = abs(line + self._rng.randrange(
                -_WRONG_ADDR_SPREAD, _WRONG_ADDR_SPREAD)) or 1
            addr = line * self.mem.line_bytes
            self.counters.bump("runahead_wrong_address")
        result = self.mem.load(cycle, addr, source="runahead")
        if result is None:
            self.counters.bump("runahead_mshr_rejected")
            return None
        self.counters.bump("runahead_prefetches")
        return result.completion
