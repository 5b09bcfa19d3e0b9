"""Branch Target Buffer: set-associative pc -> target store."""

from __future__ import annotations

from typing import Optional


class BTB:
    """Direct target cache. A taken branch that misses costs a bubble."""

    def __init__(self, entries: int = 4096, ways: int = 4) -> None:
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self.num_sets = entries // ways
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self.ways = ways
        self._mask = self.num_sets - 1
        self._tags = [[-1] * ways for _ in range(self.num_sets)]
        self._targets = [[0] * ways for _ in range(self.num_sets)]
        self._lru = [list(range(ways)) for _ in range(self.num_sets)]
        self.lookups = 0
        self.hits = 0

    def lookup(self, pc: int) -> Optional[int]:
        """Return the stored target for *pc*, or None on a miss."""
        self.lookups += 1
        set_index = pc & self._mask
        tags = self._tags[set_index]
        for way in range(self.ways):
            if tags[way] == pc:
                self.hits += 1
                lru = self._lru[set_index]
                lru.remove(way)
                lru.append(way)
                return self._targets[set_index][way]
        return None

    def update(self, pc: int, target: int) -> None:
        """Install or refresh the target for *pc*."""
        set_index = pc & self._mask
        tags = self._tags[set_index]
        for way in range(self.ways):
            if tags[way] == pc:
                self._targets[set_index][way] = target
                lru = self._lru[set_index]
                lru.remove(way)
                lru.append(way)
                return
        lru = self._lru[set_index]
        victim = lru.pop(0)
        tags[victim] = pc
        self._targets[set_index][victim] = target
        lru.append(victim)
