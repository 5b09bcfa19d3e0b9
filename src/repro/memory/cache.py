"""Set-associative cache timing model with true-LRU replacement.

The cache stores only tags (this is a timing model; data values live in the
functional simulator). Lines carry a dirty bit (write-back policy) and a
prefetched bit used by the feedback-directed prefetcher to measure
prefetch accuracy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import CacheConfig


class CacheLine:
    """One tag-store entry."""

    __slots__ = ("tag", "valid", "dirty", "prefetched")

    def __init__(self) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.prefetched = False


class Cache:
    """A single cache level, addressed by 64B line address.

    All public methods take *line addresses* (byte address // line size);
    the hierarchy does the division once.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        if config.num_sets <= 0 or config.num_sets & (config.num_sets - 1):
            raise ValueError(
                f"{name}: number of sets must be a positive power of two, "
                f"got {config.num_sets}")
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.latency = config.latency
        self._set_mask = self.num_sets - 1
        # The tag store is allocated lazily, per set, on the first fill
        # that touches the set: an untouched set is indistinguishable
        # from an all-invalid one, and small workloads touch a tiny
        # fraction of a large LLC — eager allocation was a measurable
        # slice of pipeline construction.  Each set's list is its LRU
        # order, least recently used first.
        self._lines: Dict[int, List[CacheLine]] = {}
        #: True when the most recent ``lookup`` hit a prefetched line; the
        #: hierarchy forwards this to the prefetcher's feedback loop.
        self.last_hit_prefetched = False
        # Statistics
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.prefetch_fills = 0
        self.useful_prefetches = 0

    def _find(self, line_addr: int):
        """Return ``(lines, line)``: the set's lines (None if the set was
        never filled) and the valid line holding *line_addr* (None on a
        miss)."""
        lines = self._lines.get(line_addr & self._set_mask)
        if lines is not None:
            for line in lines:
                if line.tag == line_addr and line.valid:
                    return lines, line
        return lines, None

    @staticmethod
    def _touch(lines: List[CacheLine], line: CacheLine) -> None:
        """Make *line* the most recently used of its set."""
        if lines[-1] is not line:
            lines.remove(line)
            lines.append(line)

    def set_lines(self, set_index: int) -> List[CacheLine]:
        """The tag-store lines of *set_index*, least recently used first,
        allocating on first touch.

        Only :meth:`fill` (and tests/verification poking at tag state)
        need the backing storage; lookups on a never-filled set miss
        without allocating it.
        """
        lines = self._lines.get(set_index)
        if lines is None:
            lines = self._lines[set_index] = \
                [CacheLine() for _ in range(self.ways)]
        return lines

    def lookup(self, line_addr: int) -> bool:
        """Probe for *line_addr*, counting a hit or a miss; a hit
        becomes the most recently used line of its set."""
        lines, line = self._find(line_addr)
        self.last_hit_prefetched = False
        self.accesses += 1
        if line is None:
            self.misses += 1
            return False
        self.hits += 1
        if line.prefetched:
            self.useful_prefetches += 1
            self.last_hit_prefetched = True
            line.prefetched = False
        self._touch(lines, line)
        return True

    def probe(self, line_addr: int) -> bool:
        """Check presence without disturbing LRU state or statistics."""
        return self._find(line_addr)[1] is not None

    def fill(self, line_addr: int, dirty: bool = False,
             prefetched: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert *line_addr*; return ``(evicted_line, was_dirty)`` or None.

        Filling a line already present just updates its bits.
        """
        lines, line = self._find(line_addr)
        if line is not None:
            line.dirty = line.dirty or dirty
            self._touch(lines, line)
            return None
        if lines is None:
            lines = self.set_lines(line_addr & self._set_mask)
        evicted = None
        for line in lines:
            if not line.valid:
                break
        else:
            # Every way is valid: evict the least recently used.
            line = lines[0]
            self.evictions += 1
            if line.dirty:
                self.dirty_evictions += 1
            evicted = (line.tag, line.dirty)
        line.tag = line_addr
        line.valid = True
        line.dirty = dirty
        line.prefetched = prefetched
        if prefetched:
            self.prefetch_fills += 1
        self._touch(lines, line)
        return evicted

    def mark_dirty(self, line_addr: int) -> bool:
        """Set the dirty bit if present; return whether the line was found."""
        line = self._find(line_addr)[1]
        if line is None:
            return False
        line.dirty = True
        return True

    def invalidate(self, line_addr: int) -> bool:
        """Drop *line_addr* if present; return whether it was found."""
        return self.snoop_invalidate(line_addr) is not None

    def snoop_invalidate(self, line_addr: int) -> Optional[bool]:
        """Back-invalidate *line_addr* (inclusive-hierarchy snoop).

        Returns ``None`` when the line was not present, otherwise the
        line's dirty bit at the moment it was dropped — the caller owns
        the writeback decision (a dirty inner copy is newer than the
        outer level's and must not be silently discarded).
        """
        line = self._find(line_addr)[1]
        if line is None:
            return None
        was_dirty = line.dirty
        line.valid = False
        line.tag = -1
        line.dirty = False
        line.prefetched = False
        return was_dirty

    def reset_stats(self) -> None:
        self.accesses = self.hits = self.misses = 0
        self.evictions = self.dirty_evictions = 0
        self.prefetch_fills = self.useful_prefetches = 0
