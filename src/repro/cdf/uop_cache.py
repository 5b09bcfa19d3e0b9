"""The Critical Uop Cache (Sec. 3.2, Fig. 7).

Stores, per basic block, the trace of critical (decoded) uops with the
information the critical fetch engine needs to chain blocks: the critical
mask, whether the block ends in a branch (predict it) and, implicitly, the
fall-through/next-block address. Traces hold 8 uops per entry; a block
with more critical uops occupies multiple entries, which we account for as
extra capacity weight when choosing victims.

Entries written by a fill-unit walk only become visible after the fill
latency (~1200 cycles, Sec. 3.2) — the pipeline passes the current cycle
to :meth:`lookup`.
"""

from __future__ import annotations

from typing import Optional


class UopCacheEntry:
    """One basic block's critical-uop trace."""

    __slots__ = ("bb_start", "mask", "ends_in_branch", "n_critical",
                 "lines", "valid_from", "lru")

    def __init__(self) -> None:
        self.bb_start = -1
        self.mask = 0
        self.ends_in_branch = False
        self.n_critical = 0
        self.lines = 1          # trace-cache lines consumed (8 uops each)
        self.valid_from = 0     # cycle at which the fill becomes visible
        self.lru = 0


class CriticalUopCache:
    """Set-associative bb_start -> critical trace store."""

    def __init__(self, entries: int = 288, ways: int = 4,
                 uops_per_trace: int = 8) -> None:
        if ways <= 0 or entries < ways:
            raise ValueError("bad uop-cache geometry")
        self.num_sets = max(1, entries // ways)
        self.ways = ways
        self.uops_per_trace = uops_per_trace
        self._sets = [[UopCacheEntry() for _ in range(ways)]
                      for _ in range(self.num_sets)]
        self._clock = 0
        self.lookups = 0
        self.hits = 0
        self.fills = 0
        self.evictions = 0

    def _find(self, bb_start: int) -> Optional[UopCacheEntry]:
        for entry in self._sets[bb_start % self.num_sets]:
            if entry.bb_start == bb_start:
                return entry
        return None

    def lookup(self, bb_start: int, cycle: int) -> Optional[UopCacheEntry]:
        """Return the trace for a block if present *and* fill-visible."""
        self.lookups += 1
        self._clock += 1
        entry = self.probe(bb_start, cycle)
        if entry is not None:
            entry.lru = self._clock
            self.hits += 1
        return entry

    def probe(self, bb_start: int, cycle: int) -> Optional[UopCacheEntry]:
        """:meth:`lookup` without its side effects: no lookup or hit is
        counted and no LRU stamp moves."""
        entry = self._find(bb_start)
        if entry is None or cycle < entry.valid_from:
            return None
        return entry

    def repeat_hits(self, entry: UopCacheEntry, count: int) -> None:
        """Account *count* back-to-back :meth:`lookup` hits on *entry*,
        exactly as that many calls would (a stalled critical fetch
        re-reads one trace every cycle)."""
        self.lookups += count
        self.hits += count
        self._clock += count
        entry.lru = self._clock

    def fill(self, bb_start: int, mask: int, ends_in_branch: bool,
             valid_from: int) -> UopCacheEntry:
        """Install or refresh a block's trace."""
        self._clock += 1
        self.fills += 1
        entry = self._find(bb_start)
        fresh = entry is None
        if fresh:
            bucket = self._sets[bb_start % self.num_sets]
            # Prefer invalid ways, then LRU.
            entry = min(bucket, key=lambda e: (e.bb_start != -1, e.lru))
            if entry.bb_start != -1:
                self.evictions += 1
            entry.bb_start = bb_start
            # A brand-new trace only becomes fetchable after the fill
            # latency has elapsed.
            entry.valid_from = valid_from
        # Refreshing an existing trace updates it in place; the previous
        # trace remains readable meanwhile, so visibility is unchanged.
        entry.mask = mask
        entry.n_critical = bin(entry.mask).count("1")
        entry.lines = max(1, -(-entry.n_critical // self.uops_per_trace))
        entry.ends_in_branch = ends_in_branch
        entry.lru = self._clock
        return entry

    def remove(self, bb_start: int) -> bool:
        """Drop a block (density-gate rejection); returns found."""
        entry = self._find(bb_start)
        if entry is None:
            return False
        entry.bb_start = -1
        entry.mask = 0
        return True

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0
