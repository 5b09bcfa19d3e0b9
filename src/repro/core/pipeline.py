"""Cycle-level baseline out-of-order pipeline.

Trace-driven replay of the functional uop stream under the structural
constraints of Table 1: fetch (branch predictor / BTB / RAS, taken-branch
fetch breaks, misprediction fetch gating), a decode pipeline, rename with
PRF accounting, ROB / RS / LQ / SQ occupancy, wakeup-select issue with load
and store ports, memory access through the cache hierarchy + stream
prefetcher + DRAM, store-to-load forwarding, and in-order retirement.

The stage methods are deliberately small and overridable: the CDF and PRE
pipelines subclass this model and replace/extend fetch, dispatch, and
retire behaviour.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque
from typing import Dict, List, Optional, Sequence

from ..config import SimConfig
from ..frontend import BranchUnit
from ..isa.dynuop import DynUop
from ..memory import MemoryHierarchy
from ..stats import Counters, MLPTracker, RobStallProfiler, SimResult
from .rob import COMPLETE, ISSUED, READY, WAITING, RobEntry

__all__ = ["BaselinePipeline", "UOPS_PER_ICACHE_LINE"]

#: Uops packed into one I-cache line (fetch geometry; PCs are uop
#: indices in this ISA, so a 64B line holds 16 4-byte uop slots).
UOPS_PER_ICACHE_LINE = 16


class BaselinePipeline:
    """The paper's baseline: aggressive OoO core with stream prefetching."""

    def __init__(self, trace: Sequence[DynUop], config: SimConfig,
                 benchmark: str = "bench",
                 profile_rob_stalls: bool = False) -> None:
        self.trace = trace
        self.config = config
        self.benchmark = benchmark
        core = config.core
        self.fetch_width = core.fetch_width
        self.rename_width = core.rename_width
        self.issue_width = core.issue_width
        self.retire_width = core.retire_width
        self.decode_latency = core.decode_latency
        self.redirect_penalty = core.mispredict_redirect_penalty
        self.rob_size = core.rob_size
        self.rs_size = core.rs_size
        self.lq_size = core.lq_size
        self.sq_size = core.sq_size
        self.prf_writers_limit = max(8, core.num_phys_regs - 32)
        self.load_ports = core.num_load_ports
        self.store_ports = core.num_store_ports
        self.alu_ports = core.num_alu_ports
        self.fp_ports = core.num_fp_ports
        self.muldiv_ports = core.num_muldiv_ports
        self.conservative_mem = core.memory_disambiguation == "conservative"
        if core.memory_disambiguation not in ("oracle", "conservative"):
            raise ValueError(
                f"unknown memory_disambiguation: "
                f"{core.memory_disambiguation!r}")
        self.l1d_latency = config.l1d.latency

        # Hook elision: resolve once whether a subclass actually overrides
        # each per-uop hook.  The base-class hooks are no-ops, so skipping
        # the call entirely is behaviour-neutral; it saves one Python call
        # per renamed/retired/completed uop in the modes that leave a hook
        # at its default (the baseline leaves all of them).
        cls = type(self)
        self._use_is_critical = (
            cls._is_critical is not BaselinePipeline._is_critical)
        self._use_on_dispatch = (
            cls._on_dispatch is not BaselinePipeline._on_dispatch)
        self._use_on_retire = (
            cls._on_retire is not BaselinePipeline._on_retire)
        self._use_on_complete = (
            cls._on_complete is not BaselinePipeline._on_complete)
        self._use_note_branch = (
            cls._note_branch_outcome
            is not BaselinePipeline._note_branch_outcome)
        self._use_needs_every_cycle = (
            cls.needs_every_cycle is not BaselinePipeline.needs_every_cycle)

        self.mlp_tracker = MLPTracker()
        self.mem = MemoryHierarchy(config, mlp_tracker=self.mlp_tracker)
        self.branch_unit = BranchUnit()
        self.counters = Counters()
        self.profiler: Optional[RobStallProfiler] = (
            RobStallProfiler(len(trace)) if profile_rob_stalls else None)
        #: Optional per-uop event log for the timeline viewer: when set to
        #: a list, stages append (cycle, event_char, seq) tuples. Events:
        #: F fetch, D dispatch, I issue, C complete, R retire (CDF adds
        #: f/d critical fetch/dispatch and p rename replay).
        self.event_log: Optional[list] = None
        #: Optional :class:`repro.verify.PipelineVerifier`. Attach through
        #: :meth:`attach_verifier`; when None (verify_level 0) every hook
        #: site costs one attribute comparison and nothing else.
        self.verifier = None
        #: Optional :class:`repro.obs.ObsCollector`. Attach through
        #: :meth:`attach_observer`; when None (obs_level 0, the default)
        #: the run loop pays one comparison per cycle and nothing else —
        #: the same elision contract as the verifier.
        self.observer = None

        # Frontend state.
        self.fetch_seq = 0
        self.fetch_resume_cycle = 0
        self.fetch_blocked_on: Optional[int] = None
        self.frontend_q: deque = deque()
        self.frontend_cap = self.fetch_width * (self.decode_latency + 2)
        self._mispredicted_seqs = set()
        self._last_ifetch_line = -1

        # Backend state.
        self.rob: deque = deque()
        self.inflight: Dict[int, RobEntry] = {}
        self.ready_q: List = []          # heap of (seq, tiebreak, entry)
        self.retry_loads: List[RobEntry] = []
        self.events: List = []           # heap of (cycle, tiebreak, entry)
        self._tiebreak = 0
        self.rs_used = 0
        self.lq_used = 0
        self.sq_used = 0
        self.writers_inflight = 0
        # Sorted seqs of dispatched-but-unissued stores (conservative
        # memory disambiguation holds loads behind these).
        self._unissued_stores: List[int] = []

        self.cycle = 0
        self.retired = 0
        self._dispatch_blocked: Optional[str] = None
        self._retired_this_cycle = 0

        # Records for post-hoc analysis (Fig. 1): which loads missed the
        # LLC and which branches were mispredicted.
        self.llc_miss_load_seqs: List[int] = []
        self.mispredicted_branch_seqs: List[int] = []

    # ------------------------------------------------------------------ hooks
    def _is_critical(self, uop: DynUop) -> bool:
        """Criticality marking hook; the baseline marks nothing."""
        return False

    def _on_dispatch(self, entry: RobEntry, cycle: int) -> None:
        """Subclass hook after an entry is allocated."""

    def _on_retire(self, entry: RobEntry, cycle: int) -> None:
        """Subclass hook after an entry retires."""

    def _on_stall_cycles(self, cycle: int, reason: str, weight: int) -> None:
        """Subclass hook for dispatch-stall accounting."""

    def _note_branch_outcome(self, uop: DynUop, outcome) -> None:
        """Subclass hook: a branch was predicted at fetch time."""

    def needs_every_cycle(self) -> bool:
        """Subclass hook: must the engine tick every cycle right now?

        Called from :meth:`_next_cycle` whenever the engine considers
        jumping an idle span.  A subclass whose bookkeeping must run
        every cycle while some structure is live (the CDF dual-stream
        machinery) returns True for exactly those phases, which pins
        per-cycle ticking without overriding the scheduler itself.
        The base pipeline never needs it.
        """
        return False

    def attach_verifier(self, verifier):
        """Bind *verifier* (a :class:`repro.verify.PipelineVerifier`) to
        this pipeline and enable the verification hooks; returns it."""
        self.verifier = verifier.bind(self)
        return verifier

    def attach_observer(self, collector):
        """Bind *collector* (a :class:`repro.obs.ObsCollector`) to this
        pipeline and enable the telemetry hooks; returns it."""
        self.observer = collector.bind(self)
        return collector

    def obs_gauges(self, cycle: int) -> Dict[str, int]:
        """Structure-occupancy gauges for one obs sample.

        Subclasses extend the dict with their mode-specific structures
        (the CDF partition boundary, PRE's runahead state).  Key order
        does not matter — the collector fixes a sorted column schema at
        the first sample — but the key *set* must be stable across one
        run.
        """
        mem = self.mem
        return {
            "cycle": cycle,
            "retired": self.retired,
            "rob": len(self.rob),
            "rs": self.rs_used,
            "lq": self.lq_used,
            "sq": self.sq_used,
            "frontend": len(self.frontend_q),
            "l1d_mshr": len(mem.l1d_mshrs),
            "llc_mshr": len(mem.llc_mshrs),
            "dram_reads": mem.dram.total_reads,
        }

    # ------------------------------------------------------------------ run
    def run(self) -> SimResult:
        """The cycle loop.

        Each iteration is one *ticked* cycle and calls every stage; a
        stage with no work returns after its own cheap tests.  Between
        ticks :meth:`_next_cycle` jumps idle spans in O(1).
        """
        total = len(self.trace)
        warmup = self.config.stats_warmup_uops
        warm_snap = None
        verifier = self.verifier
        observer = self.observer
        max_cycles = self.config.max_cycles
        # Bind the stage methods once: the cycle loop is the hottest loop
        # in the repository and the per-cycle attribute lookups add up.
        # Subclass overrides are resolved here (no stage is ever rebound
        # mid-run), so the binding is behaviour-neutral.
        writeback = self._writeback
        retire = self._retire
        issue = self._issue
        dispatch = self._dispatch
        fetch = self._fetch
        next_cycle = self._next_cycle
        cycle = 0
        while self.retired < total:
            if cycle >= max_cycles:
                raise RuntimeError(
                    f"simulation exceeded max_cycles={self.config.max_cycles}")
            self._retired_this_cycle = 0
            writeback(cycle)
            retire(cycle)
            issue(cycle)
            dispatch(cycle)
            fetch(cycle)
            if verifier is not None:
                verifier.on_cycle_end(cycle)
            if observer is not None:
                observer.on_cycle_end(cycle)
            if warm_snap is None and warmup and self.retired >= warmup:
                warm_snap = self._snapshot(cycle)
            cycle = next_cycle(cycle)
        self.cycle = cycle
        if verifier is not None:
            verifier.on_run_end()
        if observer is not None:
            observer.on_run_end(cycle)
        return self._build_result(cycle, warm_snap)

    # ------------------------------------------------------------------ stages
    #
    # The stage bodies below localize hot attribute/method lookups
    # (``heapq.heappop``, ``self.counters``, ``self.event_log``) into
    # function locals and batch per-event counter increments into one
    # dict subscript per stage call.  Both are purely mechanical: the
    # order of state updates, the set of counter keys written, and every
    # counter total are bit-identical to the straightforward form (the
    # serial-vs-parallel and fingerprint tests pin this down).  Counter
    # subscripts use statically-declared keys, which simlint's STAT001
    # checks exactly like ``bump`` arguments; see docs/performance.md.
    def _writeback(self, cycle: int) -> None:
        events = self.events
        if not events or events[0][0] > cycle:
            return
        event_log = self.event_log
        heappop = heapq.heappop
        heappush = heapq.heappush
        ready_q = self.ready_q
        on_complete = self._on_complete if self._use_on_complete else None
        completed = 0
        while events and events[0][0] <= cycle:
            entry = heappop(events)[2]
            if entry.flushed:
                continue
            entry.state = COMPLETE
            if event_log is not None:
                event_log.append((entry.complete_cycle, "C", entry.seq))
            completed += 1
            waiters = entry.waiters
            if waiters:
                for waiter in waiters:
                    waiter.pending -= 1
                    if (waiter.pending == 0 and waiter.state == WAITING
                            and not waiter.flushed):
                        waiter.state = READY
                        # _push_ready, inlined (one call per wakeup).
                        # self._tiebreak stays authoritative because the
                        # on_complete hook below may push entries too.
                        tiebreak = self._tiebreak + 1
                        self._tiebreak = tiebreak
                        heappush(ready_q, (waiter.seq, tiebreak, waiter))
                entry.waiters = None
            if entry.seq == self.fetch_blocked_on:
                self.fetch_blocked_on = None
                self.fetch_resume_cycle = max(
                    self.fetch_resume_cycle,
                    entry.complete_cycle + self.redirect_penalty)
            if on_complete is not None:
                on_complete(entry, cycle)
        if completed:
            counters = self.counters
            counters["wakeup_broadcasts"] += completed

    def _on_complete(self, entry: RobEntry, cycle: int) -> None:
        """Subclass hook at writeback (CDF unblocks critical fetch here)."""

    def _push_ready(self, entry: RobEntry) -> None:
        self._tiebreak += 1
        heapq.heappush(self.ready_q, (entry.seq, self._tiebreak, entry))

    def _retire(self, cycle: int) -> None:
        rob = self.rob
        if not rob:
            return
        budget = self.retire_width
        inflight = self.inflight
        event_log = self.event_log
        on_retire = self._on_retire if self._use_on_retire else None
        verifier = self.verifier
        retired_here = 0
        # ``self.retired``/``_retired_this_cycle`` stay per-entry: the
        # ``_on_retire`` hooks (CDF's fill-buffer walk interval, PRE's
        # training) read them mid-loop, so only the counter is batched.
        while budget and rob:
            entry = rob[0]
            if entry.state != COMPLETE or entry.complete_cycle > cycle:
                break
            rob.popleft()
            del inflight[entry.seq]
            uop = entry.uop
            if uop.is_load:
                self.lq_used -= 1
            elif uop.is_store:
                self.sq_used -= 1
                self.mem.store_commit(cycle, uop.mem_addr)
            if uop.writes_reg:
                self.writers_inflight -= 1
            self.retired += 1
            self._retired_this_cycle += 1
            budget -= 1
            retired_here += 1
            if event_log is not None:
                event_log.append((cycle, "R", entry.seq))
            if on_retire is not None:
                on_retire(entry, cycle)
            if verifier is not None:
                verifier.on_retire(entry, cycle)
        if retired_here:
            counters = self.counters
            counters["rob_reads"] += retired_here

    def _issue(self, cycle: int) -> None:
        if not self.ready_q and not self.retry_loads:
            return
        budget = self.issue_width
        loads_left = self.load_ports
        stores_left = self.store_ports
        # Scalar port counters (not a dict): most issued uops are ALU ops
        # and the per-uop dict hash/getitem/setitem shows up in profiles.
        alu_left = self.alu_ports
        fp_left = self.fp_ports
        muldiv_left = self.muldiv_ports

        # MSHR-full rejections are retried oldest-first. A couple of failed
        # probes per cycle is enough to learn the MSHRs are still full;
        # further attempts this cycle are pointless bus/port churn.
        failed_probes = 0
        if self.retry_loads:
            still_waiting = []
            for position, entry in enumerate(self.retry_loads):
                if entry.flushed:
                    continue
                if budget == 0 or loads_left == 0 or failed_probes >= 2:
                    still_waiting.extend(self.retry_loads[position:])
                    break
                if self._issue_load(entry, cycle):
                    budget -= 1
                    loads_left -= 1
                else:
                    failed_probes += 1
                    still_waiting.append(entry)
            self.retry_loads = still_waiting

        deferred = []
        defer = deferred.append
        ready_q = self.ready_q
        heappop = heapq.heappop
        counters = self.counters
        conservative_mem = self.conservative_mem
        unissued_stores = self._unissued_stores
        while ready_q and budget:
            item = heappop(ready_q)
            entry = item[2]
            if entry.state != READY or entry.flushed:
                continue
            uop = entry.uop
            if uop.is_load:
                if conservative_mem and unissued_stores \
                        and unissued_stores[0] < entry.seq:
                    # An older store has not computed its address yet.
                    defer(item)
                    counters["loads_held_by_stores"] += 1
                    continue
                if loads_left == 0:
                    defer(item)
                    continue
                if failed_probes >= 2 and not entry.forwarded:
                    self.retry_loads.append(entry)
                    continue
                if self._issue_load(entry, cycle):
                    loads_left -= 1
                    budget -= 1
                else:
                    failed_probes += 1
                    self.retry_loads.append(entry)
                    budget -= 1    # the slot was consumed by the attempt
                continue
            if uop.is_store:
                if stores_left == 0:
                    defer(item)
                    continue
                stores_left -= 1
            else:
                # Loads/stores were handled above, so exec_class here is
                # exactly one of 'alu' / 'fp' / 'muldiv'.
                unit = uop.exec_class
                if unit == "alu":
                    if alu_left == 0:
                        defer(item)
                        continue
                    alu_left -= 1
                elif unit == "fp":
                    if fp_left == 0:
                        defer(item)
                        continue
                    fp_left -= 1
                else:
                    if muldiv_left == 0:
                        defer(item)
                        continue
                    muldiv_left -= 1
            self._complete_at(entry, cycle, cycle + uop.exec_lat)
            budget -= 1
        for item in deferred:
            heapq.heappush(ready_q, item)

    def _issue_load(self, entry: RobEntry, cycle: int) -> bool:
        """Issue one load to the memory system; False if MSHRs rejected it."""
        uop = entry.uop
        counters = self.counters
        counters["sq_searches"] += 1
        if entry.forwarded:
            completion = cycle + self.l1d_latency
            counters["store_forwards"] += 1
            self._complete_at(entry, cycle, completion)
            return True
        result = self.mem.load(cycle, uop.mem_addr,
                               source=self._load_source(entry))
        if result is None:
            return False
        if result.llc_miss:
            entry.llc_miss = True
            self.llc_miss_load_seqs.append(entry.seq)
            counters["llc_miss_loads"] += 1
        self._complete_at(entry, cycle, result.completion)
        return True

    def _load_source(self, entry: RobEntry) -> str:
        return "demand"

    def _complete_at(self, entry: RobEntry, cycle: int, completion: int) -> None:
        if self.verifier is not None:
            self.verifier.on_issue(entry, cycle)
        entry.state = ISSUED
        entry.issue_cycle = cycle
        entry.complete_cycle = max(completion, cycle + 1)
        self.rs_used -= 1
        uop = entry.uop
        counters = self.counters
        counters["prf_reads"] += len(uop.srcs)
        if uop.writes_reg:
            counters["prf_writes"] += 1
        if uop.is_store:
            counters["lq_searches"] += 1
            if self.conservative_mem:
                self._unissued_stores.remove(entry.seq)
        self._tiebreak += 1
        if self.event_log is not None:
            self.event_log.append((cycle, "I", entry.seq))
        heapq.heappush(self.events,
                       (entry.complete_cycle, self._tiebreak, entry))

    # ------------------------------------------------------------------ dispatch
    def _dispatch(self, cycle: int) -> None:
        budget = self.rename_width
        self._dispatch_blocked = None
        frontend_q = self.frontend_q
        while budget and frontend_q:
            head = frontend_q[0]
            if head[0] > cycle:
                break
            uop = head[1]
            reason = self._allocation_block_reason(uop)
            if reason is not None:
                self._dispatch_blocked = reason
                break
            frontend_q.popleft()
            self._allocate(uop, cycle)
            budget -= 1
        if self._dispatch_blocked is not None:
            self._account_stall(cycle, self._dispatch_blocked, 1)

    def _allocation_block_reason(self, uop: DynUop) -> Optional[str]:
        if len(self.rob) >= self.rob_size:
            return "rob"
        if self.rs_used >= self.rs_size:
            return "rs"
        if uop.is_load and self.lq_used >= self.lq_size:
            return "lq"
        if uop.is_store and self.sq_used >= self.sq_size:
            return "sq"
        if uop.writes_reg and self.writers_inflight >= self.prf_writers_limit:
            return "prf"
        return None

    def _allocate(self, uop: DynUop, cycle: int) -> RobEntry:
        entry = RobEntry(
            uop,
            critical=self._is_critical(uop) if self._use_is_critical
            else False)
        if uop.seq in self._mispredicted_seqs:
            entry.mispredicted = True
            self._mispredicted_seqs.discard(uop.seq)
        # Dependency wiring (the former _wire_dependencies helper, inlined
        # here — its only call site — to drop one call per renamed uop):
        # register *entry* on each in-flight producer, count pending ones.
        inflight = self.inflight
        pending = 0
        for dep in uop.src_deps:
            producer = inflight.get(dep)
            if producer is not None and producer.state != COMPLETE \
                    and not producer.flushed:
                producer.add_waiter(entry)
                pending += 1
        if uop.is_load and uop.store_dep >= 0:
            store = inflight.get(uop.store_dep)
            if store is not None and not store.flushed:
                entry.forwarded = True
                if store.state != COMPLETE:
                    store.add_waiter(entry)
                    pending += 1
        entry.pending = pending
        if pending == 0:
            entry.state = READY
            # _push_ready, inlined.
            tiebreak = self._tiebreak + 1
            self._tiebreak = tiebreak
            heapq.heappush(self.ready_q, (entry.seq, tiebreak, entry))
        if self.conservative_mem and uop.is_store:
            bisect.insort(self._unissued_stores, uop.seq)
        self.rob.append(entry)
        inflight[uop.seq] = entry
        self.rs_used += 1
        if uop.is_load:
            self.lq_used += 1
        elif uop.is_store:
            self.sq_used += 1
        if uop.writes_reg:
            self.writers_inflight += 1
        counters = self.counters
        counters["rename_uops"] += 1
        counters["rob_writes"] += 1
        if self.event_log is not None:
            self.event_log.append((cycle, "D", uop.seq))
        if self._use_on_dispatch:
            self._on_dispatch(entry, cycle)
        if self.verifier is not None:
            self.verifier.on_dispatch(entry, cycle, critical=False)
        return entry

    # ------------------------------------------------------------------ stalls
    def _account_stall(self, cycle: int, reason: str, weight: int) -> None:
        counters = self.counters
        if reason == "rob":
            counters["full_window_stall_cycles"] += weight
            if self.rob:
                head = self.rob[0]
                if head.uop.is_load and head.llc_miss and head.state == ISSUED:
                    counters["stall_head_llc_miss_cycles"] += weight
                if self.profiler is not None:
                    self.profiler.on_stall_cycle(head.seq, self.rob[-1].seq,
                                                 weight)
        counters[f"dispatch_stall_{reason}_cycles"] += weight
        self._on_stall_cycles(cycle, reason, weight)

    # ------------------------------------------------------------------ fetch
    def _fetch(self, cycle: int) -> None:
        if self.fetch_blocked_on is not None or cycle < self.fetch_resume_cycle:
            return
        trace = self.trace
        total = len(trace)
        if self.fetch_seq >= total:
            return
        budget = self.fetch_width
        frontend_q = self.frontend_q
        frontend_cap = self.frontend_cap
        event_log = self.event_log
        counters = self.counters
        fetch_seq = self.fetch_seq
        note_branch = (self._note_branch_outcome if self._use_note_branch
                       else None)
        ifetch = self.mem.ifetch
        last_line = self._last_ifetch_line
        fetched = 0
        ready_at = cycle + self.decode_latency
        while budget and len(frontend_q) < frontend_cap \
                and fetch_seq < total:
            uop = trace[fetch_seq]
            # _touch_icache, inlined (one call per fetched uop).
            line = uop.pc // UOPS_PER_ICACHE_LINE
            if line != last_line:
                ifetch(cycle, line)
                last_line = line
            fetch_seq += 1
            frontend_q.append((ready_at, uop))
            if event_log is not None:
                event_log.append((cycle, "F", uop.seq))
            fetched += 1
            budget -= 1
            if uop.is_branch:
                counters["bpred_accesses"] += 1
                outcome = self.branch_unit.predict_and_train(uop)
                if note_branch is not None:
                    note_branch(uop, outcome)
                if outcome.mispredicted:
                    self._mispredicted_seqs.add(uop.seq)
                    self.mispredicted_branch_seqs.append(uop.seq)
                    self.fetch_blocked_on = uop.seq
                    break
                if outcome.btb_miss:
                    self.fetch_resume_cycle = cycle + 2   # one bubble
                    break
                if uop.taken:
                    break   # taken branches end the fetch group
        self.fetch_seq = fetch_seq
        self._last_ifetch_line = last_line
        if fetched:
            counters["fetch_uops"] += fetched

    def _touch_icache(self, cycle: int, pc: int) -> None:
        line = pc // UOPS_PER_ICACHE_LINE
        if line != self._last_ifetch_line:
            self.mem.ifetch(cycle, line)
            self._last_ifetch_line = line

    # ------------------------------------------------------------------ advance
    def _next_cycle(self, cycle: int) -> int:
        """The scheduler: earliest cycle at which work can appear.

        Jumps idle spans in O(1), regardless of span length, by folding
        these wakeup sources into a running min:

        * **completion events** — the top of the completion-event heap
          (``self.events``), where every issued uop's writeback is
          scheduled;
        * **MSHR expiries** — the earliest in-flight miss fill at either
          MSHR level, consulted while rejected loads wait to retry;
        * **frontend-queue head readiness** — the decode-latency
          timestamp of the oldest fetched uop, consulted while dispatch
          is unblocked;
        * **fetch resume** — redirect penalties and BTB bubbles park
          fetch until ``fetch_resume_cycle``, consulted while fetch has
          trace left and frontend-queue room;
        * **the subclass hook** — while :meth:`needs_every_cycle` says
          so, every cycle is ticked.

        The jump *coverage* (which cycles are skipped, and by how much)
        is part of the simulator's observable behaviour — skipped spans
        are counted in ``idle_skipped_cycles`` and weighted into the
        dispatch-stall breakdown, both of which feed
        ``SimResult.fingerprint()``; obs gauges sample per ticked cycle
        — so every source keeps its validity gate: a timer whose gating
        state died (fetch blocked after a resume timer was set) must not
        wake the machine on a cycle the gated form provably skips.
        """
        next_cycle = cycle + 1
        if self.ready_q or self._retired_this_cycle:
            return next_cycle
        if self._use_needs_every_cycle and self.needs_every_cycle():
            return next_cycle
        # Can anything dispatch next cycle?
        frontend_q = self.frontend_q
        dispatch_blocked = self._dispatch_blocked
        head_ready = frontend_q[0][0] if frontend_q else -1
        dispatch_possible = head_ready >= 0 and dispatch_blocked is None
        if dispatch_possible and head_ready <= next_cycle:
            return next_cycle
        # Can fetch do anything next cycle?
        fetch_possible = (self.fetch_blocked_on is None
                          and self.fetch_seq < len(self.trace)
                          and len(frontend_q) < self.frontend_cap)
        fetch_resume = self.fetch_resume_cycle
        if fetch_possible and fetch_resume <= next_cycle:
            return next_cycle
        # Idle until the next wakeup (running min; no candidate list).
        target = -1
        events = self.events
        if events:
            target = events[0][0]
        if self.retry_loads:
            # Rejected loads can only succeed once an MSHR frees (or a
            # same-line fill completes, which is an event above).
            mem = self.mem
            for expiry in (mem.l1d_mshrs.next_expiry,
                           mem.llc_mshrs.next_expiry):
                if expiry is not None and (target < 0 or expiry < target):
                    target = expiry
        if dispatch_possible and (target < 0 or head_ready < target):
            target = head_ready
        if fetch_possible and (target < 0 or fetch_resume < target):
            target = fetch_resume
        if target <= next_cycle:        # includes 'no candidates' (-1)
            return next_cycle
        skipped = target - next_cycle
        if dispatch_blocked is not None:
            self._account_stall(cycle, dispatch_blocked, skipped)
        self.counters["idle_skipped_cycles"] += skipped
        return target

    # ------------------------------------------------------------------ results
    def _external_counts(self) -> Dict[str, int]:
        mem = self.mem
        return {
            "l1i_accesses": mem.l1i.accesses,
            "l1d_accesses": mem.l1d.accesses,
            "llc_accesses": mem.llc.accesses,
            "dram_reads": mem.dram.total_reads,
            "dram_writes": mem.dram.total_writes,
            "bpred_lookups": self.branch_unit.branches_seen,
            "btb_lookups": self.branch_unit.btb.lookups,
            "prefetches": mem.prefetches_issued,
        }

    def _snapshot(self, cycle: int) -> dict:
        return {
            "cycle": cycle,
            "retired": self.retired,
            "counters": self.counters.snapshot(),
            "dram_reads": dict(self.mem.dram.reads),
            "dram_writes": dict(self.mem.dram.writes),
            "mlp": self.mlp_tracker.snapshot(),
            "external": self._external_counts(),
        }

    def _build_result(self, end_cycle: int, warm_snap: Optional[dict]) -> SimResult:
        counters = Counters(self.counters)
        external = self._external_counts()
        if warm_snap is not None:
            counters = counters.delta(warm_snap["counters"])
            cycles = end_cycle - warm_snap["cycle"]
            retired = self.retired - warm_snap["retired"]
            dram_reads = {k: v - warm_snap["dram_reads"].get(k, 0)
                          for k, v in self.mem.dram.reads.items()}
            dram_writes = {k: v - warm_snap["dram_writes"].get(k, 0)
                           for k, v in self.mem.dram.writes.items()}
            mlp = self.mlp_tracker.delta_mlp(warm_snap["mlp"])
            for key, value in external.items():
                counters[key] = value - warm_snap["external"].get(key, 0)
        else:
            cycles = end_cycle
            retired = self.retired
            dram_reads = dict(self.mem.dram.reads)
            dram_writes = dict(self.mem.dram.writes)
            mlp = self.mlp_tracker.mlp
            for key, value in external.items():
                counters[key] = value
        counters["branch_mispredicts"] = self.branch_unit.mispredicts
        return SimResult(
            benchmark=self.benchmark,
            mode=self._mode_name(),
            cycles=cycles,
            retired_uops=retired,
            mlp=mlp,
            dram_reads=dram_reads,
            dram_writes=dram_writes,
            full_window_stall_cycles=counters["full_window_stall_cycles"],
            counters=counters,
        )

    def _mode_name(self) -> str:
        return "baseline"
