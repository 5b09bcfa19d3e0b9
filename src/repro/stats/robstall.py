"""ROB-occupancy profiling during full-window stalls (Fig. 1).

The paper's Fig. 1 shows that during full-window stalls, most ROB entries
hold non-critical instructions. In the baseline pipeline the ROB holds a
contiguous program-order range [head_seq, tail_seq], so we accumulate
per-uop "ROB-resident cycles during stalls" with a difference array and
classify uops as critical afterwards (LLC-miss loads, mispredicted
branches, and their backward dependence chains).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set


class RobStallProfiler:
    """Accumulates which uops sat in the ROB during full-window stalls."""

    def __init__(self, trace_length: int) -> None:
        self._diff = [0] * (trace_length + 1)
        self.stall_cycles = 0

    def on_stall_cycle(self, head_seq: int, tail_seq: int,
                       weight: int = 1) -> None:
        """Record *weight* full-window-stall cycles with ROB = [head, tail]."""
        if tail_seq < head_seq:
            return
        self.stall_cycles += weight
        self._diff[head_seq] += weight
        self._diff[tail_seq + 1] -= weight

    def occupancy_cycles(self) -> List[int]:
        """Per-seq count of stall cycles the uop spent in the ROB."""
        result = []
        running = 0
        for delta in self._diff[:-1]:
            running += delta
            result.append(running)
        return result

    def critical_fraction(self, critical_seqs: Set[int]) -> float:
        """Fraction of stalled ROB slots x cycles held by critical uops."""
        occupancy = self.occupancy_cycles()
        total = sum(occupancy)
        if total == 0:
            return 0.0
        critical = sum(occupancy[seq] for seq in critical_seqs
                       if seq < len(occupancy))
        return critical / total


def mark_critical_chains(trace: Sequence, roots: Iterable[int]) -> Set[int]:
    """Oracle backward-dependence-chain marking.

    Given dynamic *roots* (seq numbers of critical loads/branches), walk the
    true dataflow backwards and return the set of seqs on any chain. Used
    by the Fig. 1 analysis; the CDF hardware analogue is the Fill Buffer
    walk in :mod:`repro.cdf.fill_buffer`.
    """
    critical: Set[int] = set()
    stack = list(roots)
    while stack:
        seq = stack.pop()
        if seq < 0 or seq in critical:
            continue
        critical.add(seq)
        uop = trace[seq]
        for dep in uop.src_deps:
            if dep not in critical:
                stack.append(dep)
        if uop.is_load and uop.store_dep >= 0:
            if uop.store_dep not in critical:
                stack.append(uop.store_dep)
    return critical
