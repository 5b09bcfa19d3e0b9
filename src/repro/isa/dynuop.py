"""Dynamic uop record emitted by the functional simulator.

A ``DynUop`` is one executed instance of a static instruction. It carries
everything the timing models need: resolved memory address, branch outcome
and dynamic target, and — crucially — *resolved dataflow*: the program-order
sequence numbers of the producers of each source register and, for loads,
the youngest older store to the same address. True dependencies are thereby
fixed once by the functional phase; the timing phase (baseline OoO, CDF, or
PRE) is free to reorder fetch/issue around them, which is exactly the
freedom Criticality Driven Fetch exploits.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator, Optional, Tuple


class DynUop:
    """One dynamic uop. Plain attributes with __slots__ for speed."""

    __slots__ = (
        "seq", "pc", "op", "dst", "srcs", "exec_lat", "exec_class",
        "is_load", "is_store", "is_branch", "is_cond_branch",
        "mem_addr", "taken", "next_pc", "src_deps", "store_dep",
        "is_mem", "writes_reg",
    )

    def __init__(self, seq: int, pc: int, op: int,
                 dst: Optional[int], srcs: Tuple[int, ...], exec_lat: int,
                 is_load: bool, is_store: bool,
                 is_branch: bool, is_cond_branch: bool,
                 mem_addr: Optional[int], taken: bool, next_pc: int,
                 src_deps: Tuple[int, ...], store_dep: int,
                 exec_class: str = "alu") -> None:
        self.seq = seq
        self.pc = pc
        self.op = op
        self.dst = dst
        self.srcs = srcs
        self.exec_lat = exec_lat
        self.is_load = is_load
        self.is_store = is_store
        self.is_branch = is_branch
        self.is_cond_branch = is_cond_branch
        self.mem_addr = mem_addr
        self.taken = taken
        self.next_pc = next_pc
        self.src_deps = src_deps
        self.store_dep = store_dep
        self.exec_class = exec_class
        # Derived flags, precomputed once here instead of recomputed by a
        # property descriptor on every access: the timing pipelines read
        # ``writes_reg`` several times per uop (allocation gating, PRF
        # accounting, retire) on their innermost loops, and a plain slot
        # load is several times cheaper than a property call.  Safe to
        # cache because DynUops are immutable after construction.
        self.is_mem = is_load or is_store
        self.writes_reg = dst is not None and not is_store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = ("L" if self.is_load else
                "S" if self.is_store else
                "B" if self.is_branch else "A")
        return f"<DynUop #{self.seq} pc={self.pc} {kind}>"


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a trace is built in bulk
    (as a ``with`` block or, as the trace builders use it, a decorator).

    A trace cannot form a reference cycle: a ``DynUop`` holds only ints,
    bools, None and tuples of ints.  Yet every uop counts toward the
    collector's allocation threshold, so building a trace with the
    collector on runs passes that rescan the uops built so far.  The
    collector's prior state is restored on exit, also when the body
    raises.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
