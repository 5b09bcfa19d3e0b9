"""Minimized regressions for the memory-hierarchy timing bugfixes (PR 5).

Each test here fails on the pre-fix ``MemoryHierarchy``:

1. *Prefetch instant-fill*: ``_issue_prefetch`` installs LLC tags at issue
   time, so a demand load to a line with an in-flight prefetch used to hit
   the tag store and complete at LLC latency — hiding the entire DRAM
   round trip.  Fixed: the LLC MSHRs are consulted before the tag store
   and the demand merges with the outstanding fill's completion.
2. *I-fetch MSHR bypass*: ``ifetch`` never consulted or allocated LLC
   MSHRs, so a same-line I-fetch miss while the fill was in flight either
   completed too early (tag hit) or issued duplicate DRAM traffic (tag
   evicted mid-flight).  Fixed: ifetch uses the same merge path as loads.
3. *Writeback at cycle 0 + dirty-line loss*: ``_fill_llc`` issued
   inclusive-eviction writebacks as ``dram.access(0, ...)`` (perturbing
   bank/bus state from the beginning of time) and back-invalidated a
   possibly-dirty L1D victim without writing it back.  Fixed: the real
   cycle is threaded through ``_fill_l1``/``_fill_llc`` and dirty L1D
   victims generate writeback traffic.

Plus property tests for the MSHR merge semantics all three fixes lean on.

Fingerprint note: the pinned suite fingerprints (scale 0.1 and 0.3,
baseline/cdf/pre) were re-checked after these fixes and did NOT shift —
the suite workloads at those scales almost never race a demand access
against an in-flight same-line LLC fill (probe: llc merge count is 0 for
every suite workload except lbm).  The fixes are therefore demonstrated
by the minimized unit tests below rather than by suite-level deltas; see
``test_hierarchy_fingerprints.py`` for the pinned end-to-end digests.
"""

import pytest

from repro.config import PrefetcherConfig, SimConfig
from repro.memory import MemoryHierarchy
from repro.memory.mshr import MSHRFile


def make_hierarchy(prefetch=False) -> MemoryHierarchy:
    cfg = SimConfig.baseline()
    cfg.prefetcher = PrefetcherConfig(enabled=prefetch)
    return MemoryHierarchy(cfg)


class DRAMRecorder:
    """Wrap ``dram.access`` and record every call's arguments."""

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.calls = []
        self._inner = hierarchy.dram.access

        def recording_access(cycle, line_addr, source="demand",
                             is_write=False, low_priority=False):
            self.calls.append((cycle, line_addr, source, is_write))
            return self._inner(cycle, line_addr, source=source,
                               is_write=is_write, low_priority=low_priority)

        hierarchy.dram.access = recording_access

    def by_source(self, source: str):
        return [c for c in self.calls if c[2] == source]


# ---------------------------------------------------------------------------
# Fix 1: demand load must merge with an in-flight prefetch, not hit tags.
# ---------------------------------------------------------------------------

def test_demand_load_merges_with_inflight_prefetch():
    h = make_hierarchy()
    line = h.line_of(0x40000)
    h._issue_prefetch(0, line)
    prefetch_completion = h.llc_mshrs.lookup(line)
    assert prefetch_completion is not None and prefetch_completion > 0

    result = h.load(1, 0x40000)
    assert result is not None
    # Pre-fix: tags hit -> level == "llc", completion == 1 + l1 + llc
    # latency, tens of cycles before the prefetched data exists.
    assert result.merged, "demand load must merge with the in-flight prefetch"
    assert result.level == "dram", "a merge behind DRAM is still an LLC miss"
    assert result.completion >= prefetch_completion, (
        f"load completed at {result.completion}, before the prefetch's "
        f"data arrives at {prefetch_completion} — prefetch hid DRAM latency")
    # The merge itself must not generate a second DRAM read.
    assert h.dram.reads["demand"] == 0
    assert h.dram.reads["prefetch"] == 1


def test_demand_merge_behind_prefetch_credits_usefulness_once():
    h = make_hierarchy()
    line = h.line_of(0x40000)
    h._issue_prefetch(0, line)
    h.load(1, 0x40000)
    assert h.prefetcher.useful == 1
    # After the fill lands, a plain L1 hit must not double-credit.
    done = h.llc_mshrs.lookup(line)
    if done is not None:
        h.load(done + 10, 0x40000)
    assert h.prefetcher.useful == 1


def test_prefetch_completion_reached_after_fill_lands():
    h = make_hierarchy()
    line = h.line_of(0x40000)
    h._issue_prefetch(0, line)
    prefetch_completion = h.llc_mshrs.lookup(line)
    # Once the fill has landed the line is a genuine LLC hit.
    late = h.load(prefetch_completion + 1, 0x40000)
    assert late.level in ("llc", "l1")
    assert not late.merged


# ---------------------------------------------------------------------------
# Fix 2: ifetch must use the same LLC-MSHR merge path as data loads.
# ---------------------------------------------------------------------------

def test_ifetch_merges_with_inflight_fill_not_tag_hit():
    h = make_hierarchy()
    pc_line = 7
    first = h.ifetch(0, pc_line)
    assert h.dram.reads["demand"] == 1
    outstanding = h.llc_mshrs.lookup(pc_line)
    assert outstanding == first, "ifetch miss must allocate an LLC MSHR"

    # The L1I copy conflicts out while the LLC fill is still in flight.
    h.l1i.invalidate(pc_line)
    second = h.ifetch(1, pc_line)
    # Pre-fix: LLC tag hit -> completes at 1 + l1i + llc latency, long
    # before the line's data arrives from DRAM.
    assert second >= first, (
        f"re-fetch completed at {second}, before the outstanding fill "
        f"arrives at {first}")
    assert h.dram.reads["demand"] == 1, "merge must not issue DRAM traffic"
    assert h.llc_mshrs.merges == 1


def test_ifetch_no_duplicate_dram_when_tag_evicted_midflight():
    h = make_hierarchy()
    pc_line = 7
    first = h.ifetch(0, pc_line)
    # Simulate a conflict eviction of both the L1I and LLC copies while
    # the fill is outstanding: only the MSHR entry remembers the miss.
    h.l1i.invalidate(pc_line)
    h.llc.invalidate(pc_line)
    second = h.ifetch(1, pc_line)
    # Pre-fix: tags miss everywhere -> a *second* full DRAM round trip
    # (reads == 2) serialized behind the first on the same bank.
    assert h.dram.reads["demand"] == 1, (
        "duplicate same-line ifetch miss must merge, not re-access DRAM")
    assert second >= first


def test_ifetch_merges_with_inflight_data_miss():
    h = make_hierarchy()
    line = h.line_of(0x40000)
    r = h.load(0, 0x40000)           # demand data miss -> LLC MSHR
    completion = h.ifetch(1, line)   # same line fetched as code
    assert completion >= r.completion
    assert h.dram.reads["demand"] == 1


def test_ifetch_merges_with_inflight_prefetch():
    h = make_hierarchy()
    pc_line = h.line_of(0x40000)
    h._issue_prefetch(0, pc_line)
    prefetch_completion = h.llc_mshrs.lookup(pc_line)
    completion = h.ifetch(1, pc_line)
    assert completion >= prefetch_completion
    assert h.dram.reads["demand"] == 0


def test_ifetch_after_fill_lands_is_llc_hit_latency():
    h = make_hierarchy()
    pc_line = 7
    first = h.ifetch(0, pc_line)
    h.l1i.invalidate(pc_line)
    again = h.ifetch(first + 1, pc_line)
    assert again == first + 1 + h.l1i.latency + h.llc.latency


# ---------------------------------------------------------------------------
# Fix 3: writebacks carry the real cycle; dirty L1D victims are written back.
# ---------------------------------------------------------------------------

def _conflicting_llc_lines(h: MemoryHierarchy, line: int, count: int):
    """Lines mapping to the same LLC set as *line* (and different tags)."""
    return [line + k * h.llc.num_sets for k in range(1, count + 1)]


def test_dirty_l1d_victim_written_back_on_llc_backinvalidate():
    h = make_hierarchy()
    rec = DRAMRecorder(h)
    h.store_commit(0, 0)             # line 0 dirty in L1D, clean in LLC
    line = h.line_of(0)
    assert h.l1d.probe(line)
    # Conflict-evict line 0 from the LLC; inclusion back-invalidates the
    # dirty L1D copy, which must generate a writeback (pre-fix: silently
    # dropped, because only the LLC copy's dirty bit was consulted).
    for conflict in _conflicting_llc_lines(h, line, h.llc.ways):
        h._fill_llc(5000, conflict)
    assert not h.llc.probe(line)
    assert not h.l1d.probe(line)
    writebacks = rec.by_source("writeback")
    assert len(writebacks) == 1, "dirty L1D victim must be written back"
    assert writebacks[0][3] is True  # is_write


def test_llc_eviction_writeback_uses_real_cycle_not_zero():
    h = make_hierarchy()
    rec = DRAMRecorder(h)
    h.store_commit(0, 0)
    line = h.line_of(0)
    # Propagate the dirty bit into the LLC by conflict-evicting the L1D
    # copy (dirty L1 victim -> llc.mark_dirty).
    for k in range(1, h.l1d.ways + 1):
        h._fill_l1(100, line + k * h.l1d.num_sets)
    assert not h.l1d.probe(line)
    # Now conflict-evict the dirty LLC copy at a late cycle.
    for conflict in _conflicting_llc_lines(h, line, h.llc.ways):
        h._fill_llc(5000, conflict)
    writebacks = rec.by_source("writeback")
    assert writebacks, "dirty LLC eviction must generate a writeback"
    for cycle, _, _, is_write in writebacks:
        assert is_write
        assert cycle >= 5000, (
            f"writeback issued at cycle {cycle}: pre-fix code issued all "
            f"inclusive-eviction writebacks at cycle 0, corrupting DRAM "
            f"bank/bus state from the beginning of time")


def test_clean_eviction_generates_no_writeback():
    h = make_hierarchy()
    rec = DRAMRecorder(h)
    line = 3
    h._fill_llc(10, line)
    for conflict in _conflicting_llc_lines(h, line, h.llc.ways):
        h._fill_llc(20, conflict)
    assert not h.llc.probe(line)
    assert rec.by_source("writeback") == []


def test_store_commit_rfo_uses_real_cycle_not_zero():
    h = make_hierarchy()
    rec = DRAMRecorder(h)
    h.store_commit(5000, 0x40000)    # misses L1D and LLC: an RFO
    rfos = rec.by_source("demand")
    assert len(rfos) == 1, "a store that misses everywhere must fetch"
    assert rfos[0][0] >= 5000, (
        f"RFO issued at cycle {rfos[0][0]}, before the store commits "
        f"at 5000")


def test_finished_fill_does_not_absorb_a_later_rfo():
    h = make_hierarchy()
    rec = DRAMRecorder(h)
    first = h.load(0, 0x40000)
    assert first.level == "dram"
    line = h.line_of(0x40000)
    for conflict in _conflicting_llc_lines(h, line, h.llc.ways):
        h._fill_llc(first.completion, conflict)
    assert not h.llc.probe(line) and not h.l1d.probe(line)
    # The load's fill landed long ago; its MSHR entry must have expired,
    # so the store's RFO makes a fresh DRAM trip.
    h.store_commit(first.completion + 10_000, 0x40000)
    assert len(rec.by_source("demand")) == 2, (
        "a finished fill absorbed a later RFO")


def test_store_commit_merges_with_outstanding_llc_fill():
    h = make_hierarchy()
    h.load(0, 0x40000)               # miss in flight
    # Evict the (instant-tag) L1D copy so store_commit takes the slow path.
    line = h.line_of(0x40000)
    h.l1d.snoop_invalidate(line)
    h.llc.invalidate(line)
    h.store_commit(1, 0x40000)
    # The outstanding fill brings the data; no second DRAM trip (RFO).
    assert h.dram.reads["demand"] == 1


# ---------------------------------------------------------------------------
# MSHR merge-semantics property tests.
# ---------------------------------------------------------------------------

def test_mshr_merge_returns_allocated_completion():
    m = MSHRFile(4)
    m.allocate(0x10, 250, payload="demand")
    assert m.lookup(0x10) == 250
    assert m.payload(0x10) == "demand"
    assert m.merge(0x10) == 250
    assert m.merges == 1
    assert m.allocations == 1


def test_mshr_duplicate_allocate_raises():
    m = MSHRFile(4)
    m.allocate(0x10, 250)
    with pytest.raises(ValueError):
        m.allocate(0x10, 300)


def test_mshr_capacity_enforced():
    m = MSHRFile(2)
    m.allocate(1, 100)
    m.allocate(2, 100)
    assert not m.can_allocate()
    with pytest.raises(RuntimeError):
        m.allocate(3, 100)


def test_mshr_expiry_frees_entries_in_completion_order():
    m = MSHRFile(4)
    m.allocate(1, 100)
    m.allocate(2, 200)
    m.allocate(3, 150)
    m.expire(99)
    assert len(m) == 3
    m.expire(150)
    assert m.lookup(1) is None
    assert m.lookup(3) is None
    assert m.lookup(2) == 200
    assert m.next_expiry == 200
    m.expire(200)
    assert len(m) == 0
    assert m.next_expiry is None


def test_mshr_realloc_after_expiry_uses_new_completion():
    m = MSHRFile(2)
    m.allocate(5, 100)
    m.expire(100)
    m.allocate(5, 400)
    # The stale heap entry for completion=100 must not evict the new one.
    m.expire(101)
    assert m.lookup(5) == 400
    assert m.merge(5) == 400


def test_mshr_merge_property_random_interleaving():
    """Random allocate/expire/merge stream vs a naive reference model."""
    import random
    rng = random.Random(1234)
    m = MSHRFile(8)
    ref = {}                         # line -> completion
    for step in range(2000):
        cycle = step
        # Reference + real expiry.
        ref = {l: c for l, c in ref.items() if c > cycle}
        m.expire(cycle)
        line = rng.randrange(16)
        if line in ref:
            assert m.lookup(line) == ref[line]
            assert m.merge(line) == ref[line]
        else:
            assert m.lookup(line) is None
            if len(ref) < 8:
                completion = cycle + rng.randrange(1, 300)
                m.allocate(line, completion)
                ref[line] = completion
        assert len(m) == len(ref)
