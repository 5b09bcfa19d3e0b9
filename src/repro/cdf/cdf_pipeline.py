"""The Criticality Driven Fetch pipeline (Sec. 3).

Extends the baseline OoO core with the full CDF machinery:

* retire-time training of the Critical Count Tables and the Fill Buffer;
* periodic backwards dataflow walks building Mask Cache masks and Critical
  Uop Cache traces (density-gated, fill-latency delayed);
* CDF mode entry on a Critical Uop Cache hit;
* a critical fetch engine that walks basic blocks through the uop cache,
  predicting every branch once (recording outcomes in the Delayed Branch
  Queue) and emitting only critical uops to the critical rename stage;
* a non-critical stream that fetches *all* uops from the I-cache, takes
  its control flow from the DBQ, renames non-critical uops normally, and
  replays the renames of critical uops via the Critical Map Queue;
* a dynamically partitioned backend (ROB/LQ/SQ sections, RS/PRF shares);
* program-order retirement across the two ROB sections;
* poison-bit dependence-violation detection with critical-stream flush.

Timestamps: the paper assigns skip-aware timestamps so the two streams
interleave correctly; the dynamic trace's sequence numbers serve that role
here exactly.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Dict, Optional, Sequence

from ..config import SimConfig
from ..core.pipeline import BaselinePipeline
from ..core.rob import COMPLETE, READY, WAITING, RobEntry
from ..isa.dynuop import DynUop
from ..isa.program import Program
from .cct import make_branch_cct, make_load_cct
from .fill_buffer import FillBuffer
from .mask_cache import MaskCache
from .partition import PartitionController
from .queues import CMQEntry, CriticalMapQueue, DBQEntry, DelayedBranchQueue
from .uop_cache import CriticalUopCache, UopCacheEntry

#: Basic blocks the critical fetch engine can traverse per cycle (one or
#: two trace-cache lines).
BBS_PER_CYCLE = 2

#: Capacity of the Critical Instruction Buffers between critical fetch and
#: critical rename (Fig. 4).
CRIT_FETCH_BUFFER_CAP = 24

#: Pipeline depth from the Critical Uop Cache to critical rename (decoded
#: uops skip decode).
CRIT_FETCH_LATENCY = 2

#: Rename block reasons that accrue partition stall cycles each cycle.
_PARTITIONED = ("rob", "lq", "sq")

#: No wakeup pending (a cycle no run reaches).
_NEVER = 1 << 62


class CDFPipeline(BaselinePipeline):
    """Baseline core + Criticality Driven Fetch."""

    def __init__(self, trace: Sequence[DynUop], config: SimConfig,
                 program: Program, benchmark: str = "bench",
                 **kwargs) -> None:
        super().__init__(trace, config, benchmark, **kwargs)
        if not config.cdf.enabled:
            raise ValueError("CDFPipeline requires config.cdf.enabled")
        self.program = program
        cdf = config.cdf
        self.cdf_cfg = cdf
        # Static basic-block map (pc -> leader pc).
        self.bb_start = program.bb_start_table()

        # Criticality prediction and trace construction.
        self.cct_loads = make_load_cct(cdf)
        self.cct_branches = make_branch_cct(cdf)
        self.fill_buffer = FillBuffer(cdf.fill_buffer_entries)
        self.mask_cache = MaskCache(cdf.mask_cache_entries,
                                    cdf.mask_cache_ways)
        self.uop_cache = CriticalUopCache(cdf.uop_cache_entries,
                                          cdf.uop_cache_ways,
                                          cdf.uops_per_trace)
        self.use_permissive = False
        self._retired_since_fill = 0
        self._retired_since_mask_reset = 0
        self._interval_critical = 0
        self._record_from = self.fill_buffer.window_start(
            cdf.fill_interval_uops)

        # CDF mode and the critical fetch engine.
        self.cdf_mode = False
        self.crit_seq = 0
        self.mode_entry_seq = 0
        self.crit_stopped = False
        self.crit_stop_seq: Optional[int] = None
        self.crit_blocked_on: Optional[int] = None
        self.crit_resume_cycle = 0
        self.crit_fetch_buffer: deque = deque()
        self.critically_fetched = set()
        # Every seq renamed by the critical stream in the current CDF
        # session: their destinations are in the critical RAT, so they are
        # legitimate producers for later critical uops even after they
        # retire (cleared at mode entry).
        self._crit_session_seqs = set()

        # FIFOs.
        self.dbq = DelayedBranchQueue(cdf.delayed_branch_queue_entries)
        self.cmq = CriticalMapQueue(cdf.critical_map_queue_entries)

        # Partitioned backend. The baseline's `rob` deque becomes the
        # non-critical section; the critical section is separate.
        self.rob_crit: deque = deque()
        self.partitions = PartitionController(
            cdf, config.core.rob_size, config.core.lq_size,
            config.core.sq_size, config.core.rs_size)
        self.lq_crit_used = 0
        self.sq_crit_used = 0
        self.writers_crit = 0
        # critical-share -> non-critical PRF writer limit (see
        # _noncrit_prf_limit)
        self._prf_limit_memo: Dict[int, int] = {}

        # Replay / retirement ordering.
        self.replay_frontier = 0
        self._rename_stall_until = 0

        self._extra_stage = 1 if cdf.extra_rename_stage else 0

    def _mode_name(self) -> str:
        return "cdf"

    def obs_gauges(self, cycle: int):
        """Baseline gauges plus the CDF-specific time-series the paper's
        headline claims hinge on: the dynamic partition boundary, the
        critical-section occupancy, and the fetch-ahead distance (how far
        the critical stream runs ahead of the in-order fetch pointer)."""
        gauges = super().obs_gauges(cycle)
        gauges["rob_crit"] = len(self.rob_crit)
        gauges["crit_partition"] = self.partitions.rob.critical_size
        gauges["lq_crit"] = self.lq_crit_used
        gauges["sq_crit"] = self.sq_crit_used
        gauges["fetch_ahead"] = max(0, self.crit_seq - self.fetch_seq)
        gauges["cdf_mode"] = 1 if self.cdf_mode else 0
        return gauges

    # =============================================================== routing
    def _regular_only(self, cycle: int) -> bool:
        """Is the machine a baseline core this cycle?

        It is while no CDF structure is live, rename is not stalled
        after a violation flush, and every partition has decayed to
        zero.  The partitioned gate then equals the base gate check for
        check, ``decay_all`` is a no-op and the retire merge only ever
        sees the non-critical ROB, so ``_dispatch`` and ``_retire`` run
        the base code.  Only CDF-mode entry leaves this state.
        """
        if self.cdf_mode or self.crit_fetch_buffer or self.rob_crit \
                or self.critically_fetched \
                or cycle < self._rename_stall_until:
            return False
        partitions = self.partitions
        return not (partitions.rob.critical_size
                    or partitions.lq.critical_size
                    or partitions.sq.critical_size)

    # ================================================================ retire
    def _retire(self, cycle: int) -> None:
        if self._regular_only(cycle):
            BaselinePipeline._retire(self, cycle)
            return
        budget = self.retire_width
        rob_crit = self.rob_crit
        rob_noncrit = self.rob
        if not rob_crit and not rob_noncrit:
            return
        inflight = self.inflight
        event_log = self.event_log
        on_retire = self._on_retire
        verifier = self.verifier
        retired_here = 0
        while budget:
            head_c = rob_crit[0] if rob_crit else None
            head_n = rob_noncrit[0] if rob_noncrit else None
            if head_c is None and head_n is None:
                break
            if head_n is None or (head_c is not None
                                  and head_c.seq < head_n.seq):
                entry = head_c
                from_critical = True
                # Every older uop must have been seen by the regular
                # rename stage (in-order RAT update), which implies all
                # older non-critical uops are dispatched and retired.
                if self.replay_frontier <= entry.seq:
                    break
            else:
                entry = head_n
                from_critical = False
            if entry.state != COMPLETE or entry.complete_cycle > cycle:
                break
            if from_critical:
                rob_crit.popleft()
                self.lq_crit_used -= entry.uop.is_load
                self.sq_crit_used -= entry.uop.is_store
                if entry.uop.writes_reg:
                    self.writers_crit -= 1
            else:
                rob_noncrit.popleft()
                self.lq_used -= entry.uop.is_load
                self.sq_used -= entry.uop.is_store
                if entry.uop.writes_reg:
                    self.writers_inflight -= 1
            del inflight[entry.seq]
            if entry.uop.is_store:
                self.mem.store_commit(cycle, entry.uop.mem_addr)
            self.retired += 1
            self._retired_this_cycle += 1
            budget -= 1
            retired_here += 1
            if event_log is not None:
                event_log.append((cycle, "R", entry.seq))
            on_retire(entry, cycle)
            if verifier is not None:
                verifier.on_retire(entry, cycle)
        if retired_here:
            counters = self.counters
            counters["rob_reads"] += retired_here

    # ---------------------------------------------------------- CCT training
    def _on_retire(self, entry: RobEntry, cycle: int) -> None:
        uop = entry.uop
        cdf = self.cdf_cfg
        counters = self.counters
        # The CCTs train on every retire; the Fill Buffer records only
        # the retires the next walk reads.
        record = self._retired_since_fill >= self._record_from
        root_critical = False
        if uop.is_load:
            self.cct_loads.update(uop.pc, entry.llc_miss)
            counters["cct_updates"] += 1
            if record:
                root_critical = self.cct_loads.is_critical(
                    uop.pc, self.use_permissive)
        elif uop.is_cond_branch:
            self.cct_branches.update(uop.pc, entry.mispredicted)
            counters["cct_updates"] += 1
            if record and cdf.mark_branches_critical:
                root_critical = self.cct_branches.is_critical(
                    uop.pc, self.use_permissive)
        elif cdf.mark_longlat_critical \
                and uop.exec_lat >= cdf.longlat_min_latency:
            # Generalised criticality (Sec. 6): long-latency arithmetic
            # roots chains too.
            root_critical = True
            counters["longlat_roots"] += 1
        if record:
            self.fill_buffer.record_uop(uop, self.bb_start[uop.pc],
                                        root_critical)

        if entry.critical:
            self._interval_critical += 1
        self._retired_since_fill += 1
        self._retired_since_mask_reset += 1
        if self._retired_since_mask_reset >= cdf.mask_cache_reset_interval:
            self.mask_cache.reset()
            self._retired_since_mask_reset = 0
        if self._retired_since_fill >= cdf.fill_interval_uops \
                and self.fill_buffer.full:
            self._do_fill(cycle)

    def _do_fill(self, cycle: int) -> None:
        """Run the backwards dataflow walk and install traces."""
        cdf = self.cdf_cfg
        # Adapt strict/permissive selection to measured coverage.
        if self._retired_since_fill:
            fraction = self._interval_critical / self._retired_since_fill
            self.use_permissive = fraction < cdf.low_coverage_fraction
        self._interval_critical = 0

        result = self.fill_buffer.walk(self.mask_cache.snapshot_masks())
        self.counters.bump("fill_walks")
        self.counters.bump("fill_walk_uops", result.total)
        fraction = result.critical_fraction
        if fraction < cdf.min_critical_fraction \
                or fraction > cdf.max_critical_fraction:
            for bb in result.bb_masks:
                self.uop_cache.remove(bb)
                self.mask_cache.remove(bb)
            self.counters.bump("fill_rejected")
        else:
            valid_from = cycle + cdf.fill_latency_cycles
            for bb, mask in result.bb_masks.items():
                merged = self.mask_cache.accumulate(bb, mask)
                self.uop_cache.fill(
                    bb, merged,
                    result.bb_ends_in_branch.get(bb, False), valid_from)
            self.counters.bump("fill_applied")
        self._retired_since_fill = 0

    # ================================================================ fetch
    def _fetch(self, cycle: int) -> None:
        if not self.cdf_mode:
            self._maybe_enter_cdf(cycle)
        if not self.cdf_mode:
            super()._fetch(cycle)
            return
        self.counters["cdf_mode_cycles"] += 1
        self._critical_fetch(cycle)
        self._regular_fetch_cdf(cycle)
        self._maybe_exit_cdf(cycle)

    def _maybe_enter_cdf(self, cycle: int) -> None:
        if self.fetch_blocked_on is not None \
                or cycle < self.fetch_resume_cycle \
                or self.fetch_seq >= len(self.trace):
            return
        pc = self.trace[self.fetch_seq].pc
        entry = self.uop_cache.lookup(self.bb_start[pc], cycle)
        if entry is None or entry.mask == 0:
            return
        self.cdf_mode = True
        # The regular-only stages leave replay_frontier alone.  Regular
        # rename has renamed every uop older than its queue's head, and
        # that queue holds consecutive seqs up to fetch_seq.
        frontend_q = self.frontend_q
        self.replay_frontier = (frontend_q[0][1].seq if frontend_q
                                else self.fetch_seq)
        self.crit_seq = self.fetch_seq
        self.mode_entry_seq = self.fetch_seq
        self.crit_stopped = False
        self.crit_stop_seq = None
        self.crit_blocked_on = None
        self.crit_resume_cycle = cycle
        self._crit_session_seqs = set()
        self.partitions.on_mode_entry()
        self.counters.bump("cdf_mode_entries")

    def _stop_critical_fetch(self) -> None:
        self.crit_stopped = True
        self.crit_stop_seq = self.crit_seq
        self.crit_blocked_on = None

    def _critical_fetch(self, cycle: int) -> None:
        if self.crit_stopped or self.crit_blocked_on is not None \
                or cycle < self.crit_resume_cycle:
            return
        trace = self.trace
        total = len(trace)
        bb_start = self.bb_start
        buffer = self.crit_fetch_buffer
        counters = self.counters
        event_log = self.event_log
        ready_at = cycle + CRIT_FETCH_LATENCY
        emitted = 0
        bbs_left = BBS_PER_CYCLE
        while bbs_left and emitted < self.fetch_width:
            if self.crit_seq >= total:
                self._stop_critical_fetch()
                return
            bb = bb_start[trace[self.crit_seq].pc]
            entry = self.uop_cache.lookup(bb, cycle)
            if entry is None:
                self._stop_critical_fetch()
                counters["cdf_exit_uop_cache_miss"] += 1
                return
            mask = entry.mask
            counters["uop_cache_reads"] += 1
            # Traverse this basic-block instance.
            while self.crit_seq < total:
                uop = trace[self.crit_seq]
                if bb_start[uop.pc] != bb:
                    break   # flowed into the next block
                is_crit = (mask >> (uop.pc - bb)) & 1
                if uop.is_branch and self.dbq.full:
                    return  # stall: DBQ has no room for the prediction
                if is_crit and len(buffer) >= CRIT_FETCH_BUFFER_CAP:
                    return  # stall: critical instruction buffer full
                mispredicted = False
                if uop.is_branch:
                    counters["bpred_accesses"] += 1
                    outcome = self.branch_unit.predict_and_train(uop)
                    mispredicted = outcome.mispredicted
                    if mispredicted:
                        self._mispredicted_seqs.add(uop.seq)
                        self.mispredicted_branch_seqs.append(uop.seq)
                    self.dbq.push(DBQEntry(uop.seq, outcome.predicted_taken,
                                           mispredicted, is_crit))
                if is_crit:
                    buffer.append((ready_at, uop))
                    self.critically_fetched.add(uop.seq)
                    if event_log is not None:
                        event_log.append((cycle, "f", uop.seq))
                    counters["crit_fetch_uops"] += 1
                    emitted += 1
                self.crit_seq += 1
                if uop.is_branch:
                    if mispredicted:
                        # Wait for resolution: early if the branch is
                        # critical (fetched just now), late if it will
                        # only execute in the non-critical stream.
                        self.crit_blocked_on = uop.seq
                        counters[
                            "crit_fetch_blocked_on_critical_branch"
                            if is_crit else
                            "crit_fetch_blocked_on_noncritical_branch"] += 1
                        return
                    break   # basic block ends at its branch
                if emitted >= self.fetch_width:
                    return  # mid-block; resume here next cycle
            bbs_left -= 1

    def _regular_fetch_cdf(self, cycle: int) -> None:
        if self.fetch_blocked_on is not None \
                or cycle < self.fetch_resume_cycle:
            return
        trace = self.trace
        limit = self.crit_seq   # control flow known up to critical fetch
        budget = self.fetch_width
        decode = self.decode_latency
        if self.cdf_cfg.non_critical_uop_cache:
            # Design alternative (Sec. 3.3): decoded uops come from a
            # dedicated cache, widening non-critical fetch and skipping
            # the decoders.
            budget *= self.cdf_cfg.non_critical_fetch_boost
            decode = max(1, decode - 2)
            self.counters.bump("nc_uop_cache_reads")
        frontend_q = self.frontend_q
        frontend_cap = self.frontend_cap
        counters = self.counters
        event_log = self.event_log
        fetched = 0
        ready_at = cycle + decode + self._extra_stage
        while budget and len(frontend_q) < frontend_cap \
                and self.fetch_seq < limit:
            uop = trace[self.fetch_seq]
            self._touch_icache(cycle, uop.pc)
            self.fetch_seq += 1
            frontend_q.append((ready_at, uop))
            if event_log is not None:
                event_log.append((cycle, "F", uop.seq))
            fetched += 1
            budget -= 1
            if uop.is_branch:
                head = self.dbq.peek()
                if head is None or head.seq != uop.seq:
                    # Should not happen: every branch below crit_seq has a
                    # DBQ entry. Fall back to predicting locally.
                    counters["dbq_mismatches"] += 1
                    outcome = self.branch_unit.predict_and_train(uop)
                    mispredicted = outcome.mispredicted
                else:
                    self.dbq.pop()
                    counters["dbq_pops"] += 1
                    mispredicted = head.mispredicted
                if mispredicted:
                    self._block_fetch_on(uop.seq, cycle)
                    break
                if uop.taken:
                    break
        if fetched:
            counters["fetch_uops"] += fetched

    def _block_fetch_on(self, seq: int, cycle: int) -> None:
        """Stall regular fetch until branch *seq* resolves (it may already
        have, if the branch was critical and executed early)."""
        entry = self.inflight.get(seq)
        if entry is not None and not entry.flushed \
                and entry.state != COMPLETE:
            self.fetch_blocked_on = seq
            return
        if entry is not None:
            resume = entry.complete_cycle + self.redirect_penalty
        else:
            resume = cycle + 1   # resolved and retired long ago
        self.fetch_resume_cycle = max(self.fetch_resume_cycle, resume)

    def _maybe_exit_cdf(self, cycle: int) -> None:
        if not self.crit_stopped:
            return
        if self.fetch_seq < (self.crit_stop_seq or 0):
            return
        if self.crit_fetch_buffer:
            return
        self.cdf_mode = False
        self.counters.bump("cdf_mode_exits")
        if not self.dbq.empty:
            self.counters.bump("dbq_leftover_entries", len(self.dbq))
            self.dbq.clear()

    def _writeback(self, cycle: int) -> None:
        # _on_complete can act only while critical fetch waits on a
        # branch.
        BaselinePipeline._writeback(
            self, cycle,
            self._on_complete if self.crit_blocked_on is not None else None)

    def _on_complete(self, entry: RobEntry, cycle: int) -> None:
        if entry.seq == self.crit_blocked_on:
            self.crit_blocked_on = None
            self.crit_resume_cycle = max(
                self.crit_resume_cycle,
                entry.complete_cycle + self.redirect_penalty)

    # ============================================================== dispatch
    def _dispatch(self, cycle: int) -> None:
        if self._regular_only(cycle):
            BaselinePipeline._dispatch(self, cycle)
            return
        if cycle < self._rename_stall_until:
            return
        budget = self.rename_width
        self._dispatch_blocked = None
        partitions = self.partitions

        # Critical rename has priority (Sec. 3.5, Issue and Dispatch).
        crit_blocked: Optional[str] = None
        buffer = self.crit_fetch_buffer
        crit_allocated = 0
        while budget and buffer and buffer[0][0] <= cycle:
            uop = buffer[0][1]
            crit_blocked = self._critical_block_reason(uop)
            if crit_blocked is not None:
                break
            buffer.popleft()
            self._allocate_critical(uop, cycle)
            crit_allocated += 1
            budget -= 1

        # Regular rename: non-critical uops allocate, critical uops replay.
        frontend_q = self.frontend_q
        allocated = 0
        while budget and frontend_q and frontend_q[0][0] <= cycle:
            uop = frontend_q[0][1]
            seq = uop.seq
            if seq in self.critically_fetched:
                head = self.cmq.peek()
                if head is None or head.seq != seq:
                    # Critical stream has not renamed this uop yet.
                    self._dispatch_blocked = "cmq_wait"
                    break
                entry = self.inflight.get(seq)
                if entry is not None and entry.poisoned:
                    # Poison bit detected while replaying the rename: the
                    # uop stays at the head of the frontend queue and is
                    # re-dispatched as a regular uop after the flush.
                    self._count_renames(allocated, crit_allocated)
                    self._violation_flush(cycle, seq)
                    return
                frontend_q.popleft()
                self.cmq.pop()
                self.critically_fetched.discard(seq)
                self.replay_frontier = seq + 1
                budget -= 1
                if self.event_log is not None:
                    self.event_log.append((cycle, "p", seq))
                self.counters["replayed_uops"] += 1
                continue
            reason = self._allocation_block_reason(uop)
            if reason is not None:
                self._dispatch_blocked = reason
                break
            frontend_q.popleft()
            self._allocate(uop, cycle)
            self.replay_frontier = seq + 1
            allocated += 1
            budget -= 1
        self._count_renames(allocated, crit_allocated)

        # Stall accounting drives the dynamic partitioning. Only stalls
        # observed while the machine is actually partitioned count: in
        # regular mode every stall is trivially 'non-critical' and would
        # bias the controller into shrinking the critical section the
        # moment CDF mode begins.
        partitioned = self.cdf_mode or bool(self.rob_crit)
        if crit_blocked in _PARTITIONED:
            if partitioned:
                getattr(partitions, crit_blocked).note_stall(critical=True)
            self.counters[f"crit_dispatch_stall_{crit_blocked}_cycles"] += 1
        elif crit_blocked is not None:
            self.counters[f"crit_dispatch_stall_{crit_blocked}_cycles"] += 1
        blocked = self._dispatch_blocked
        if blocked in _PARTITIONED and partitioned:
            getattr(partitions, blocked).note_stall(critical=False)
        if blocked is not None:
            self._account_stall(cycle, blocked, 1)
        if not self.cdf_cfg.dynamic_partitioning:
            return
        if self.cdf_mode:
            if crit_blocked or blocked:
                partitions.rebalance_all(
                    rob_occupancy=len(self.rob_crit),
                    lq_occupancy=self.lq_crit_used,
                    sq_occupancy=self.sq_crit_used)
        elif not self.rob_crit:
            partitions.decay_all()

    def _count_renames(self, allocated: int, crit_allocated: int) -> None:
        """Bump one dispatch call's rename counters in one step."""
        counters = self.counters
        if allocated:
            counters["rename_uops"] += allocated
        if crit_allocated:
            counters["crit_rename_uops"] += crit_allocated
        if allocated or crit_allocated:
            counters["rob_writes"] += allocated + crit_allocated

    def _allocation_block_reason(self, uop: DynUop) -> Optional[str]:
        # Physical limits first: a rebalance (or CDF-mode entry) can move
        # the partition boundary past the *other* section's current
        # occupancy — the section then drains down to its new bound, but
        # until it does, this section's nominal headroom is not backed by
        # free physical entries.  Allocation needs both.  The physical
        # checks are _physical_block_reason inlined (same order): this is
        # the hottest CDF dispatch predicate, evaluated once per
        # frontend-queue head per cycle.
        if len(self.rob) + len(self.rob_crit) >= self.rob_size:
            return "rob"
        if self.rs_used + self.rs_crit_used >= self.rs_size:
            return "rs"
        if uop.is_load and self.lq_used + self.lq_crit_used >= self.lq_size:
            return "lq"
        if uop.is_store \
                and self.sq_used + self.sq_crit_used >= self.sq_size:
            return "sq"
        if uop.writes_reg and self.writers_inflight + self.writers_crit \
                >= self.prf_writers_limit:
            return "prf"
        partitions = self.partitions
        if len(self.rob) >= partitions.rob.noncritical_size:
            return "rob"
        rs_noncrit = self.rs_size - (self.partitions.rs_critical_size
                                     if (self.cdf_mode or self.rob_crit)
                                     else 0)
        if self.rs_used >= rs_noncrit:
            return "rs"
        if uop.is_load and self.lq_used >= partitions.lq.noncritical_size:
            return "lq"
        if uop.is_store and self.sq_used >= partitions.sq.noncritical_size:
            return "sq"
        if uop.writes_reg and self.writers_inflight >= \
                self._noncrit_prf_limit():
            return "prf"
        return None

    def _physical_block_reason(self, uop: DynUop) -> Optional[str]:
        """Both ROB sections together must fit the physical structures."""
        if len(self.rob) + len(self.rob_crit) >= self.rob_size:
            return "rob"
        if self.rs_used + self.rs_crit_used >= self.rs_size:
            return "rs"
        if uop.is_load and self.lq_used + self.lq_crit_used >= self.lq_size:
            return "lq"
        if uop.is_store \
                and self.sq_used + self.sq_crit_used >= self.sq_size:
            return "sq"
        if uop.writes_reg and self.writers_inflight + self.writers_crit \
                >= self.prf_writers_limit:
            return "prf"
        return None

    def _noncrit_prf_limit(self) -> int:
        share = self.partitions.rob.critical_size \
            if (self.cdf_mode or self.rob_crit) else 0
        limit = self._prf_limit_memo.get(share)
        if limit is None:
            # prf_writers_limit and rob.total are fixed at construction,
            # so the limit is a pure function of the current critical
            # share — memoized because rebalances visit few distinct
            # shares while dispatch asks every cycle.
            crit_share = self.prf_writers_limit * share \
                // max(1, self.partitions.rob.total)
            limit = max(8, self.prf_writers_limit - crit_share)
            self._prf_limit_memo[share] = limit
        return limit

    def _critical_block_reason(self, uop: DynUop) -> Optional[str]:
        reason = self._physical_block_reason(uop)
        if reason is not None:
            return reason
        partitions = self.partitions
        if self.replay_frontier < self.mode_entry_seq:
            # The critical RAT is copied 'after the last regular mode
            # instruction has been renamed' (Sec. 3.4): critical rename
            # waits until the regular stream has renamed everything that
            # was in flight when CDF mode began.
            return "rat_copy"
        if len(self.rob_crit) >= partitions.rob.critical_size:
            return "rob"
        if self.rs_crit_used >= partitions.rs_critical_size:
            return "rs"
        if uop.is_load and self.lq_crit_used >= partitions.lq.critical_size:
            return "lq"
        if uop.is_store and self.sq_crit_used >= partitions.sq.critical_size:
            return "sq"
        if uop.writes_reg and self.writers_crit >= \
                max(8, self.prf_writers_limit - self._noncrit_prf_limit()):
            return "prf"
        if self.cmq.full:
            return "cmq"
        return None

    def _allocate_critical(self, uop: DynUop, cycle: int) -> RobEntry:
        entry = RobEntry(uop, critical=True)
        if uop.seq in self._mispredicted_seqs:
            entry.mispredicted = True
            self._mispredicted_seqs.discard(uop.seq)
        inflight = self.inflight
        entry_seq = self.mode_entry_seq
        session = self._crit_session_seqs
        pending = 0
        for dep in uop.src_deps:
            if dep >= entry_seq and dep not in session:
                # The producer was not marked critical (unseen control
                # path in the mask), so its value is not in the critical
                # RAT: the critical uop executes with a stale value — a
                # register dependence violation (Sec. 3.6), detected by
                # the poison bit when the rename is replayed.
                entry.poisoned = True
                self.counters["poisoned_register_sources"] += 1
                continue
            producer = inflight.get(dep)
            if producer is not None and not producer.flushed \
                    and producer.state != COMPLETE:
                producer.add_waiter(entry)
                pending += 1
        if uop.is_load and uop.store_dep >= 0:
            store_dep = uop.store_dep
            if store_dep >= entry_seq and store_dep not in session:
                # Memory dependence violation: the forwarding store was
                # not marked critical (Sec. 3.5, Memory Disambiguation).
                entry.poisoned = True
                self.counters["poisoned_memory_sources"] += 1
            else:
                store = inflight.get(store_dep)
                if store is not None and not store.flushed:
                    entry.forwarded = True
                    if store.state != COMPLETE:
                        store.add_waiter(entry)
                        pending += 1
        entry.pending = pending
        if pending == 0:
            entry.state = READY
            self._push_ready(entry)
        if self.conservative_mem and uop.is_store:
            bisect.insort(self._unissued_stores, uop.seq)
        self.rob_crit.append(entry)
        inflight[uop.seq] = entry
        self.rs_crit_used += 1
        self.lq_crit_used += uop.is_load
        self.sq_crit_used += uop.is_store
        if uop.writes_reg:
            self.writers_crit += 1
        self.cmq.push(CMQEntry(uop.seq, uop.dst))
        self._crit_session_seqs.add(uop.seq)
        if self.event_log is not None:
            self.event_log.append((cycle, "d", uop.seq))
        if self.verifier is not None:
            self.verifier.on_dispatch(entry, cycle, critical=True)
        return entry

    # -------------------------------------------------------------- flush
    def _violation_flush(self, cycle: int, seq: int) -> None:
        """Dependence violation detected at replay of *seq*: flush all
        critical uops at/after it and fall back to regular execution."""
        self.counters.bump("dependence_violations")
        rob_crit = self.rob_crit
        flushed = 0
        while rob_crit and rob_crit[-1].seq >= seq:
            entry = rob_crit.pop()
            entry.flushed = True
            del self.inflight[entry.seq]
            if entry.state in (WAITING, READY):   # RS entry still held
                self.rs_crit_used -= 1
            self.lq_crit_used -= entry.uop.is_load
            self.sq_crit_used -= entry.uop.is_store
            if entry.uop.writes_reg:
                self.writers_crit -= 1
            self.critically_fetched.discard(entry.seq)
            if self.conservative_mem and entry.uop.is_store \
                    and entry.state in (WAITING, READY):
                self._unissued_stores.remove(entry.seq)
            flushed += 1
        self.counters.bump("violation_flushed_uops", flushed)
        self.cmq.flush_younger_than(seq)
        # Critical fetch ends; remaining non-critical uops drain, then the
        # frontend exits CDF mode (the DBQ entries it produced are for
        # correct-path branches and stay valid).
        self._stop_critical_fetch()
        for leftover in list(self.critically_fetched):
            if leftover >= seq:
                self.critically_fetched.discard(leftover)
        self.crit_fetch_buffer = deque(
            (ready, uop) for ready, uop in self.crit_fetch_buffer
            if uop.seq < seq)
        self._rename_stall_until = cycle + self.cdf_cfg.violation_flush_penalty

    # -------------------------------------------------------------- ticking
    def _next_cycle(self, cycle: int) -> int:
        """The scheduler, extended over CDF mode's quiet stall spans.

        With no CDF structure live the machine is a baseline core, and
        the base wakeups cover every way work can appear.  In CDF mode
        the engine jumps a span only when, from the next cycle until
        the earliest CDF wakeup, every stage would do nothing but bump
        per-cycle counters; those counters then grow by the span.  The
        wakeups are the top of the completion-event heap, the heads of
        the critical fetch buffer and the frontend queue, and the two
        fetch-resume timers.

        Everything else ticks: live states outside CDF mode, spans in
        which a partitioned ROB/LQ/SQ accrues stall cycles or a stall
        imbalance has reached the rebalance threshold, the rename stall
        after a violation flush (``_dispatch`` returns before resetting
        ``_dispatch_blocked`` there) and retry-load spans.  The CDF-exit
        test needs no check: it ran at the end of this tick's fetch and
        failed, and a quiet span changes none of its inputs.
        """
        if not (self.cdf_mode or self.crit_fetch_buffer or self.rob_crit):
            return super()._next_cycle(cycle)
        next_cycle = cycle + 1
        if not self.cdf_mode or self.ready_q or self.retry_loads \
                or self._retired_this_cycle \
                or next_cycle < self._rename_stall_until:
            return next_cycle
        events = self.events
        target = events[0][0] if events else _NEVER
        if target <= next_cycle:
            return next_cycle

        # Critical rename: no ready head, or a head blocked without
        # touching the partition stall counters.
        buffer = self.crit_fetch_buffer
        crit_blocked: Optional[str] = None
        if buffer:
            ready, uop = buffer[0]
            if ready > next_cycle:
                target = min(target, ready)
            else:
                crit_blocked = self._critical_block_reason(uop)
                if crit_blocked is None or crit_blocked in _PARTITIONED:
                    return next_cycle
        # Regular rename: likewise, or a replay waiting on the CMQ.
        frontend_q = self.frontend_q
        blocked: Optional[str] = None
        if frontend_q:
            ready, uop = frontend_q[0]
            if ready > next_cycle:
                target = min(target, ready)
            elif uop.seq in self.critically_fetched:
                head = self.cmq.peek()
                if head is not None and head.seq == uop.seq:
                    return next_cycle
                blocked = "cmq_wait"
            else:
                blocked = self._allocation_block_reason(uop)
                if blocked is None or blocked in _PARTITIONED:
                    return next_cycle
        if (crit_blocked or blocked) and self.cdf_cfg.dynamic_partitioning:
            # A blocked rename calls rebalance_all every cycle; it is a
            # no-op only while every imbalance is inside the threshold.
            threshold = self.cdf_cfg.stall_cycle_threshold
            partitions = self.partitions
            for resource in (partitions.rob, partitions.lq, partitions.sq):
                if abs(resource.critical_stall_cycles
                       - resource.noncritical_stall_cycles) >= threshold:
                    return next_cycle

        # Critical fetch: idle, or stalled at the first uop of a valid
        # trace on a full DBQ or a full critical fetch buffer.
        stalled_trace = None
        if not self.crit_stopped and self.crit_blocked_on is None:
            resume = self.crit_resume_cycle
            if resume > next_cycle:
                target = min(target, resume)
            else:
                stalled_trace = self._critical_fetch_stall(next_cycle)
                if stalled_trace is None:
                    return next_cycle
        # Regular fetch: idle, facing a full frontend queue, or caught
        # up with critical fetch (the limit the base wakeup ignores).
        nc_reads = False
        if self.fetch_blocked_on is None:
            resume = self.fetch_resume_cycle
            if resume > next_cycle:
                target = min(target, resume)
            elif len(frontend_q) < self.frontend_cap \
                    and self.fetch_seq < self.crit_seq:
                return next_cycle
            else:
                nc_reads = self.cdf_cfg.non_critical_uop_cache
        # Retire: a dispatch this tick can advance replay_frontier past
        # a completed critical head, which no event announces.
        if target == _NEVER or self._retire_ready():
            return next_cycle

        skipped = target - next_cycle
        counters = self.counters
        counters["cdf_mode_cycles"] += skipped
        if crit_blocked is not None:
            counters[f"crit_dispatch_stall_{crit_blocked}_cycles"] += skipped
        if blocked is not None:
            self._account_stall(cycle, blocked, skipped)
        if stalled_trace is not None:
            counters["uop_cache_reads"] += skipped
            self.uop_cache.repeat_hits(stalled_trace, skipped)
        if nc_reads:
            counters["nc_uop_cache_reads"] += skipped
        counters["idle_skipped_cycles"] += skipped
        return target

    def _critical_fetch_stall(self, cycle: int) -> Optional[UopCacheEntry]:
        """The uop-cache trace that critical fetch at *cycle* would read
        and then stall on, or None if it would move or stop instead."""
        trace = self.trace
        if self.crit_seq >= len(trace):
            return None
        uop = trace[self.crit_seq]
        bb = self.bb_start[uop.pc]
        entry = self.uop_cache.probe(bb, cycle)
        if entry is None:
            return None
        if uop.is_branch and self.dbq.full:
            return entry
        if (entry.mask >> (uop.pc - bb)) & 1 \
                and len(self.crit_fetch_buffer) >= CRIT_FETCH_BUFFER_CAP:
            return entry
        return None

    def _retire_ready(self) -> bool:
        """Would :meth:`_retire` retire its first uop next cycle?"""
        head_c = self.rob_crit[0] if self.rob_crit else None
        head_n = self.rob[0] if self.rob else None
        if head_n is None or (head_c is not None
                              and head_c.seq < head_n.seq):
            if head_c is None or self.replay_frontier <= head_c.seq:
                return False
            return head_c.state == COMPLETE
        return head_n.state == COMPLETE
