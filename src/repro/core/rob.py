"""Reorder-buffer entry and state machine.

Entries move WAITING -> READY -> ISSUED -> COMPLETE and retire in program
order. ``waiters`` implements the RS wakeup network: consumers register on
their producers and are woken (pending decremented) at writeback.
"""

from __future__ import annotations

from typing import List, Optional

from ..isa.dynuop import DynUop

# Entry states.
WAITING = 0    # operands outstanding
READY = 1      # all operands available, eligible for issue
ISSUED = 2     # executing
COMPLETE = 3   # result written back


class RobEntry:
    """One in-flight uop with its scheduling state."""

    __slots__ = ("uop", "seq", "state", "pending", "waiters",
                 "complete_cycle", "critical", "forwarded",
                 "llc_miss", "mispredicted", "flushed", "poisoned")

    def __init__(self, uop: DynUop, critical: bool = False) -> None:
        self.uop = uop
        self.seq = uop.seq
        self.state = WAITING
        self.pending = 0
        self.waiters: Optional[List["RobEntry"]] = None
        self.complete_cycle = -1
        self.critical = critical
        self.forwarded = False       # load satisfied by store forwarding
        self.llc_miss = False        # load went to DRAM (trains the CCT)
        self.mispredicted = False    # branch the frontend got wrong
        self.flushed = False         # squashed (CDF dependence violation)
        self.poisoned = False        # executed with a stale input (CDF)

    def add_waiter(self, entry: "RobEntry") -> None:
        if self.waiters is None:
            self.waiters = []
        self.waiters.append(entry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = {WAITING: "WAIT", READY: "RDY", ISSUED: "EXE",
                 COMPLETE: "DONE"}
        return f"<RobEntry #{self.seq} {names[self.state]}>"
