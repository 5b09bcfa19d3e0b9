"""The Fill Buffer and the backwards dataflow walk (Sec. 3.2, Fig. 5-7).

The Fill Buffer records the last N retired uops. When full (and the 10k
retired-uop interval elapses), it is walked from youngest to oldest,
marking critical every uop in the dependence chain of any load or branch
the Critical Count Tables flagged — the Filtered-Runahead-style backward
slice construction, generalised to multiple roots.

Register dependences propagate through a needed-register set; memory
dependences propagate through address tags (a store becomes critical when
a younger critical load reads its address). The walk also produces a
per-basic-block bit mask of critical uop positions, the unit the Mask
Cache and Critical Uop Cache operate on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple


class FillBufferEntry:
    """One retired uop as recorded by the fill unit."""

    __slots__ = ("seq", "pc", "bb_start", "dst", "srcs", "mem_addr",
                 "is_load", "is_store", "is_branch", "root_critical")

    def __init__(self, seq: int, pc: int, bb_start: int,
                 dst: Optional[int], srcs: Tuple[int, ...],
                 mem_addr: Optional[int], is_load: bool, is_store: bool,
                 is_branch: bool, root_critical: bool) -> None:
        self.seq = seq
        self.pc = pc
        self.bb_start = bb_start
        self.dst = dst
        self.srcs = srcs
        self.mem_addr = mem_addr
        self.is_load = is_load
        self.is_store = is_store
        self.is_branch = is_branch
        self.root_critical = root_critical


class WalkResult:
    """Output of one backwards dataflow walk."""

    def __init__(self, critical_flags: List[bool],
                 bb_masks: Dict[int, int],
                 bb_ends_in_branch: Dict[int, bool],
                 total: int, marked: int) -> None:
        self.critical_flags = critical_flags
        self.bb_masks = bb_masks                # bb_start -> 64-bit mask
        self.bb_ends_in_branch = bb_ends_in_branch
        self.total = total
        self.marked = marked

    @property
    def critical_fraction(self) -> float:
        return self.marked / self.total if self.total else 0.0


#: Internal row layout: the walk only needs these nine fields, so the
#: buffer stores plain tuples — recording happens once per retired uop
#: (the hottest CDF/PRE hook) and a tuple literal is several times
#: cheaper than a ``FillBufferEntry`` construction.
_Row = Tuple[int, int, Optional[int], Tuple[int, ...], Optional[int],
             bool, bool, bool, bool]


class FillBuffer:
    """FIFO of the last ``capacity`` retired uops."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: List[_Row] = []
        self.walks = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def clear(self) -> None:
        self._entries = []

    def window_start(self, interval: int) -> int:
        """How many retires into a fill interval recording starts.

        A walk runs once *interval* retires have passed and the buffer
        is full, and reads only the last ``capacity`` records, so any
        earlier retire would be pushed out unread.  When the interval is
        not longer than the buffer, every retire is recorded.
        """
        return interval - self.capacity

    def record(self, entry: FillBufferEntry) -> None:
        """Append one retired uop; oldest entries fall off the front."""
        entries = self._entries
        entries.append((entry.pc, entry.bb_start, entry.dst, entry.srcs,
                        entry.mem_addr, entry.is_load, entry.is_store,
                        entry.is_branch, entry.root_critical))
        if len(entries) > self.capacity:
            del entries[0:len(entries) - self.capacity]

    def record_uop(self, uop, bb_start: int, root_critical: bool) -> None:
        """Append one retired uop straight from its ``DynUop``.

        Fast path for the pipelines' per-retire hook: equivalent to
        building a :class:`FillBufferEntry` from *uop* and calling
        :meth:`record`, without the intermediate object.
        """
        entries = self._entries
        entries.append((uop.pc, bb_start,
                        uop.dst if uop.writes_reg else None, uop.srcs,
                        uop.mem_addr, uop.is_load, uop.is_store,
                        uop.is_branch, root_critical))
        if len(entries) > self.capacity:
            del entries[0:len(entries) - self.capacity]

    def walk(self, prior_masks: Optional[Dict[int, int]] = None) -> WalkResult:
        """Backwards dataflow walk over the buffered uops.

        ``prior_masks`` (from the Mask Cache) pre-marks uops that earlier
        walks found critical for the same basic block on other control
        paths, accumulating coverage exactly as the paper's shift-register
        mechanism does.
        """
        self.walks += 1
        entries = self._entries
        n = len(entries)
        critical = [False] * n
        needed_regs: Set[int] = set()
        needed_mem: Set[int] = set()
        prior_masks = prior_masks or {}

        # Pre-compute each uop's bit position within its basic block so
        # prior masks can pre-mark and new masks can be built.
        bit_pos = [row[0] - row[1] for row in entries]

        for i in range(n - 1, -1, -1):
            (_pc, bb_start, dst, srcs, mem_addr,
             is_load, is_store, _is_branch, mark) = entries[i]
            if not mark and dst is not None and dst in needed_regs:
                mark = True
            if not mark and is_store and mem_addr in needed_mem:
                mark = True
            if not mark:
                pos = bit_pos[i]
                if (prior_masks.get(bb_start, 0) >> pos) & 1:
                    mark = True
            if not mark:
                continue
            critical[i] = True
            if dst is not None:
                needed_regs.discard(dst)
            needed_regs.update(srcs)
            if is_load and mem_addr is not None:
                needed_mem.add(mem_addr)
            if is_store and mem_addr is not None:
                needed_mem.discard(mem_addr)

        bb_masks: Dict[int, int] = {}
        bb_ends_in_branch: Dict[int, bool] = {}
        for i, row in enumerate(entries):
            bb_start = row[1]
            bb_masks.setdefault(bb_start, 0)
            if critical[i]:
                bb_masks[bb_start] |= (1 << bit_pos[i])
            if row[7]:
                bb_ends_in_branch[bb_start] = True
        marked = sum(critical)
        return WalkResult(critical, bb_masks, bb_ends_in_branch, n, marked)
