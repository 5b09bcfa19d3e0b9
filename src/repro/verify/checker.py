"""Pipeline invariant checker, hooked into the cycle loop.

The pipelines expose four verification points (all behind a single
``pipeline.verifier is not None`` test, so a run with
``SimConfig.verify_level == 0`` pays one attribute comparison per event
and nothing else):

* ``on_dispatch``  — after a ROB entry is allocated;
* ``on_issue``     — when an entry is selected and sent to execute;
* ``on_retire``    — after an entry retires;
* ``on_cycle_end`` — once per simulated step of the main loop.

What runs at each point depends on ``verify_level``:

=====  ==============================================================
level  checks
=====  ==============================================================
0      verification off (the default; zero behavioural change)
1      event checks: program-order retirement, no flushed/incomplete
       retirement, sources ready at issue, forwarding consistency,
       conservative-disambiguation load ordering, per-partition
       occupancy bounds at allocation; plus the differential oracle
       if one is attached
2      level 1 + per-cycle occupancy sweeps (partition totals never
       exceed the physical structures, no negative occupancy) and a
       full structural scan every ``scan_interval`` cycles (ROB seq
       order, LSQ/RS/PRF recounts, inflight-map consistency, cache
       tag-store sanity)
3      level 2 with the full structural scan every cycle
=====  ==============================================================

Every check that fails raises :class:`InvariantViolation` naming the
invariant, the cycle, the offending uop, and a replay hint.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..core.rob import COMPLETE, READY, WAITING, RobEntry
from .errors import InvariantViolation
from .oracle import DifferentialOracle


class PipelineVerifier:
    """Invariant checker (and oracle host) for one pipeline run."""

    def __init__(self, level: int = 1,
                 oracle: Optional[DifferentialOracle] = None,
                 context: str = "", replay: str = "",
                 scan_interval: int = 256) -> None:
        if level < 1:
            raise ValueError("PipelineVerifier requires level >= 1; "
                             "leave pipeline.verifier unset to disable")
        self.level = level
        self.oracle = oracle
        self.context = context
        self.replay = replay
        self.scan_interval = max(1, scan_interval)
        self.pipeline: Any = None
        self._dual = False          # has a partitioned (critical) ROB
        self._prev_retired_seq = -1
        self._last_scan_cycle = 0

    # ------------------------------------------------------------------
    def bind(self, pipeline: Any) -> "PipelineVerifier":
        """Associate with *pipeline*; returns self for chaining."""
        self.pipeline = pipeline
        self._dual = hasattr(pipeline, "rob_crit")
        if self.oracle is not None:
            self.oracle.mode = pipeline._mode_name()
            if not self.oracle.replay:
                self.oracle.replay = self.replay
        return self

    def _fail(self, invariant: str, detail: str, cycle: int,
              seq: Optional[int] = None) -> None:
        mode = self.pipeline._mode_name() if self.pipeline else ""
        raise InvariantViolation(
            invariant=invariant, detail=detail, cycle=cycle, seq=seq,
            mode=mode, context=self.context, replay=self.replay)

    # ------------------------------------------------------------ events
    def on_dispatch(self, entry: RobEntry, cycle: int,
                    critical: bool) -> None:
        """Occupancy bounds hold at the moment an entry is allocated."""
        p = self.pipeline
        p.counters.bump("verify_dispatch_checks")
        uop = entry.uop
        if critical:
            parts = p.partitions
            if len(p.rob_crit) > parts.rob.critical_size:
                self._fail("partition_rob_bound",
                           f"critical ROB holds {len(p.rob_crit)} > "
                           f"partition bound {parts.rob.critical_size}",
                           cycle, uop.seq)
            if p.rs_crit_used > parts.rs_critical_size:
                self._fail("partition_rs_bound",
                           f"critical RS share {p.rs_crit_used} > "
                           f"{parts.rs_critical_size}", cycle, uop.seq)
            if p.lq_crit_used > parts.lq.critical_size:
                self._fail("partition_lq_bound",
                           f"critical LQ {p.lq_crit_used} > "
                           f"{parts.lq.critical_size}", cycle, uop.seq)
            if p.sq_crit_used > parts.sq.critical_size:
                self._fail("partition_sq_bound",
                           f"critical SQ {p.sq_crit_used} > "
                           f"{parts.sq.critical_size}", cycle, uop.seq)
            return
        if self._dual:
            parts = p.partitions
            if len(p.rob) > parts.rob.noncritical_size:
                self._fail("partition_rob_bound",
                           f"non-critical ROB holds {len(p.rob)} > "
                           f"partition bound "
                           f"{parts.rob.noncritical_size}", cycle, uop.seq)
        elif len(p.rob) > p.rob_size:
            self._fail("rob_bound",
                       f"ROB holds {len(p.rob)} > {p.rob_size}",
                       cycle, uop.seq)
        if p.rs_used > p.rs_size:
            self._fail("rs_bound", f"RS holds {p.rs_used} > {p.rs_size}",
                       cycle, uop.seq)
        if p.lq_used > p.lq_size:
            self._fail("lq_bound", f"LQ holds {p.lq_used} > {p.lq_size}",
                       cycle, uop.seq)
        if p.sq_used > p.sq_size:
            self._fail("sq_bound", f"SQ holds {p.sq_used} > {p.sq_size}",
                       cycle, uop.seq)

    def on_issue(self, entry: RobEntry, cycle: int) -> None:
        """Scheduling invariants hold when an entry starts executing."""
        p = self.pipeline
        p.counters.bump("verify_issue_checks")
        uop = entry.uop
        if entry.pending != 0:
            self._fail("issue_pending_wakeups",
                       f"issued with {entry.pending} outstanding "
                       f"wakeups", cycle, uop.seq)
        if entry.flushed:
            self._fail("issue_flushed",
                       "a squashed entry was issued", cycle, uop.seq)
        if not entry.poisoned:
            for dep in uop.src_deps:
                producer = p.inflight.get(dep)
                if producer is not None and not producer.flushed \
                        and producer.state != COMPLETE:
                    self._fail(
                        "issue_source_not_ready",
                        f"source seq {dep} is in flight in state "
                        f"{producer.state} (not COMPLETE)", cycle,
                        uop.seq)
        if entry.forwarded and (not uop.is_load or uop.store_dep < 0):
            self._fail("forward_without_store",
                       "entry marked forwarded but has no forwarding "
                       "store", cycle, uop.seq)
        if uop.is_load and uop.store_dep >= 0 and not entry.forwarded \
                and not entry.poisoned:
            store = p.inflight.get(uop.store_dep)
            if store is not None and not store.flushed:
                self._fail(
                    "load_bypassed_forwarding_store",
                    f"load reads memory while forwarding store seq "
                    f"{uop.store_dep} is still in flight", cycle,
                    uop.seq)
        if p.conservative_mem and uop.is_load and not entry.forwarded \
                and not self._dual:
            unissued = p._unissued_stores
            if unissued and unissued[0] < uop.seq:
                self._fail(
                    "conservative_load_order",
                    f"load issued ahead of unissued older store seq "
                    f"{unissued[0]} under conservative disambiguation",
                    cycle, uop.seq)

    def on_retire(self, entry: RobEntry, cycle: int) -> None:
        """Commit-time invariants, then the differential oracle."""
        p = self.pipeline
        p.counters.bump("verify_retired_uops")
        if entry.seq <= self._prev_retired_seq:
            self._fail("retire_order",
                       f"seq {entry.seq} retired after seq "
                       f"{self._prev_retired_seq} (program order "
                       f"requires strictly increasing seqs)", cycle,
                       entry.seq)
        if entry.flushed:
            self._fail("retire_flushed", "a squashed entry retired",
                       cycle, entry.seq)
        if entry.state != COMPLETE:
            self._fail("retire_incomplete",
                       f"retired in state {entry.state} (not COMPLETE)",
                       cycle, entry.seq)
        if entry.complete_cycle > cycle:
            self._fail("retire_before_complete",
                       f"retired at cycle {cycle} but completes at "
                       f"{entry.complete_cycle}", cycle, entry.seq)
        self._prev_retired_seq = entry.seq
        if self.oracle is not None:
            p.counters.bump("verify_oracle_uops")
            self.oracle.on_retire(entry.uop, cycle)

    # ------------------------------------------------------------ cycles
    def on_cycle_end(self, cycle: int) -> None:
        if self.level < 2:
            return
        p = self.pipeline
        p.counters.bump("verify_cycle_checks")
        core = p.config.core
        rob_crit = len(p.rob_crit) if self._dual else 0
        lq_crit = p.lq_crit_used if self._dual else 0
        sq_crit = p.sq_crit_used if self._dual else 0
        rs_crit = p.rs_crit_used if self._dual else 0
        occupancies = (
            ("ROB", len(p.rob) + rob_crit, core.rob_size),
            ("RS", p.rs_used + rs_crit, core.rs_size),
            ("LQ", p.lq_used + lq_crit, core.lq_size),
            ("SQ", p.sq_used + sq_crit, core.sq_size),
        )
        for name, used, limit in occupancies:
            if used > limit:
                self._fail("occupancy_total",
                           f"{name} occupancy {used} exceeds the "
                           f"physical structure ({limit})", cycle)
        negatives = (
            ("rs_used", p.rs_used), ("lq_used", p.lq_used),
            ("sq_used", p.sq_used),
            ("writers_inflight", p.writers_inflight),
            ("rs_crit_used", rs_crit), ("lq_crit_used", lq_crit),
            ("sq_crit_used", sq_crit),
        )
        for name, value in negatives:
            if value < 0:
                self._fail("negative_occupancy",
                           f"{name} went negative ({value})", cycle)
        if self.level >= 3 \
                or cycle - self._last_scan_cycle >= self.scan_interval:
            self._last_scan_cycle = cycle
            self._structural_scan(cycle)

    # ---------------------------------------------------- structural scan
    def _scan_partition(self, name: str, rob, cycle: int) -> tuple:
        """Order/content scan of one ROB section; returns its recounts."""
        loads = stores = writers = rs_entries = 0
        prev = -1
        for entry in rob:
            if entry.seq <= prev:
                self._fail("rob_order",
                           f"{name} ROB out of program order: seq "
                           f"{entry.seq} follows {prev}", cycle,
                           entry.seq)
            prev = entry.seq
            if entry.flushed:
                self._fail("flushed_in_rob",
                           f"squashed entry still in the {name} ROB",
                           cycle, entry.seq)
            if self.pipeline.inflight.get(entry.seq) is not entry:
                self._fail("inflight_map",
                           f"{name} ROB entry seq {entry.seq} missing "
                           f"from (or mismatched in) the inflight map",
                           cycle, entry.seq)
            uop = entry.uop
            loads += uop.is_load
            stores += uop.is_store
            writers += uop.writes_reg
            rs_entries += entry.state in (WAITING, READY)
        return loads, stores, writers, rs_entries

    def _recount(self, what: str, counted: int, tracked: int,
                 cycle: int) -> None:
        if counted != tracked:
            self._fail("resource_recount",
                       f"{what}: recount over the ROB finds {counted} "
                       f"but the occupancy counter says {tracked}",
                       cycle)

    def _structural_scan(self, cycle: int) -> None:
        p = self.pipeline
        p.counters.bump("verify_structural_scans")
        loads, stores, writers, rs_entries = self._scan_partition(
            "non-critical" if self._dual else "", p.rob, cycle)
        self._recount("LQ (non-critical)", loads, p.lq_used, cycle)
        self._recount("SQ (non-critical)", stores, p.sq_used, cycle)
        self._recount("PRF writers", writers, p.writers_inflight, cycle)
        self._recount("RS (non-critical)", rs_entries, p.rs_used, cycle)
        total_entries = len(p.rob)
        if self._dual:
            c_loads, c_stores, c_writers, c_rs = self._scan_partition(
                "critical", p.rob_crit, cycle)
            self._recount("LQ (critical)", c_loads, p.lq_crit_used, cycle)
            self._recount("SQ (critical)", c_stores, p.sq_crit_used,
                          cycle)
            self._recount("PRF writers (critical)", c_writers,
                          p.writers_crit, cycle)
            self._recount("RS (critical)", c_rs, p.rs_crit_used, cycle)
            total_entries += len(p.rob_crit)
        if len(p.inflight) != total_entries:
            self._fail("inflight_map",
                       f"inflight map holds {len(p.inflight)} entries "
                       f"but the ROB sections hold {total_entries}",
                       cycle)
        if p.conservative_mem:
            expected = sorted(
                entry.seq
                for rob in ((p.rob, p.rob_crit) if self._dual
                            else (p.rob,))
                for entry in rob
                if entry.uop.is_store and entry.state in (WAITING, READY))
            if expected != list(p._unissued_stores):
                self._fail("unissued_store_tracking",
                           f"unissued-store list {list(p._unissued_stores)}"
                           f" != dispatched unissued stores {expected}",
                           cycle)
        self._cache_scan(cycle)

    def _cache_scan(self, cycle: int) -> None:
        p = self.pipeline
        p.counters.bump("verify_cache_scans")
        for cache in (p.mem.l1i, p.mem.l1d, p.mem.llc):
            # The tag store allocates per set on first fill; an absent
            # set is all-invalid by construction, so scanning only the
            # allocated ones checks every line that can hold state.
            for set_index, lines in cache._lines.items():
                tags: List[int] = [line.tag for line in lines
                                   if line.valid]
                if len(tags) != len(set(tags)):
                    self._fail("cache_duplicate_tag",
                               f"{cache.name} set {set_index} holds a "
                               f"duplicate line: {sorted(tags)}", cycle)
                for tag in tags:
                    if tag & cache._set_mask != set_index:
                        self._fail(
                            "cache_tag_set_mismatch",
                            f"{cache.name} line {tag} stored in set "
                            f"{set_index}, belongs in set "
                            f"{tag & cache._set_mask}", cycle)

    # ------------------------------------------------------------ finish
    def on_run_end(self) -> None:
        """All machine structures must drain; the oracle must be sated."""
        p = self.pipeline
        end = p.cycle
        if p.rob or (self._dual and p.rob_crit):
            self._fail("drain_rob",
                       f"{len(p.rob)} entries left in the ROB at end of "
                       f"run", end)
        if p.inflight:
            self._fail("drain_inflight",
                       f"{len(p.inflight)} entries left in the inflight "
                       f"map", end)
        if p.retry_loads:
            self._fail("drain_retry_loads",
                       f"{len(p.retry_loads)} loads still awaiting MSHR "
                       f"retry", end)
        leftovers = [
            ("rs_used", p.rs_used), ("lq_used", p.lq_used),
            ("sq_used", p.sq_used),
            ("writers_inflight", p.writers_inflight),
        ]
        if self._dual:
            leftovers += [
                ("rs_crit_used", p.rs_crit_used),
                ("lq_crit_used", p.lq_crit_used),
                ("sq_crit_used", p.sq_crit_used),
                ("writers_crit", p.writers_crit),
            ]
        for name, value in leftovers:
            if value:
                self._fail("drain_occupancy",
                           f"{name} is {value} at end of run "
                           f"(expected 0)", end)
        if self.oracle is not None:
            self.oracle.on_run_end(p.retired, len(p.trace))
