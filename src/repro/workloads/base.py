"""Workload framework: the SPEC-like synthetic kernel suite.

The paper evaluates the memory-intensive subset of SPEC CPU2006/2017.
Those binaries and inputs are unavailable offline, so each benchmark is
replaced by a synthetic kernel engineered to reproduce the *property the
paper attributes to it* (random LLC-missing gathers for astar, pointer
chasing for mcf, streaming for lbm/libquantum, distant misses for nab,
dense stencils for zeusmp/GemsFDTD/fotonik3d/roms, ...). DESIGN.md
section 5 tabulates the mapping.

Memory regions (byte addresses):

* ``TABLE_REGION``  - small tables, cache-resident after warmup
* ``INDEX_REGION``  - medium index arrays, LLC-resident, prefetchable
* ``BIG_REGION``    - large data, never fits the LLC (demand misses)
* ``HEAP_REGION``   - pointer-chase arenas
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from ..isa import Program, ProgramBuilder, execute
from ..isa.dynuop import DynUop

TABLE_REGION = 0x0040_0000       # 4 MB mark
INDEX_REGION = 0x0100_0000      # 16 MB mark
BIG_REGION = 0x0400_0000        # 64 MB mark
HEAP_REGION = 0x1000_0000       # 256 MB mark

DEFAULT_SEED = 42


class Workload:
    """One runnable benchmark: program + initial memory + metadata.

    A kernel builder makes a workload with its memory image.  The
    harness's trace store (:mod:`repro.harness.tracestore`) keeps the
    rest, :meth:`to_json`, beside the workload's trace, and restores it
    with :meth:`from_json` without the image.  Only functional execution
    (on a trace-store miss) and the differential oracle read ``memory``;
    on a restored workload the first read runs the kernel builder again.
    """

    def __init__(self, name: str, program: Program,
                 memory: Optional[Dict[int, int]], max_uops: int,
                 description: str = "",
                 warmup_fraction: float = 0.3) -> None:
        self.name = name
        self.program = program
        self.max_uops = max_uops
        self.description = description
        #: Fraction of the dynamic trace treated as warmup when measuring
        #: (the paper warms 200M instructions before each SimPoint).
        self.warmup_fraction = warmup_fraction
        #: None only on a workload restored by :meth:`from_json`, until
        #: ``memory`` is first read.
        self._memory = memory
        self._rebuild: Optional[Callable[[], Workload]] = None
        self._trace_cache: Optional[List[DynUop]] = None
        #: Optional hooks installed by the harness's persistent trace
        #: store: ``trace_loader`` may return a previously compiled trace
        #: (or None), ``trace_saver`` persists a freshly built one.  The
        #: workload layer stays store-agnostic.
        self.trace_loader: Optional[
            Callable[[], Optional[List[DynUop]]]] = None
        self.trace_saver: Optional[Callable[[List[DynUop]], None]] = None

    def to_json(self) -> dict:
        """Every field but the memory image, as JSON-able data."""
        return {
            "name": self.name,
            "program": self.program.to_json(),
            "max_uops": self.max_uops,
            "description": self.description,
            "warmup_fraction": self.warmup_fraction,
        }

    @classmethod
    def from_json(cls, data: dict,
                  rebuild: Callable[[], "Workload"]) -> "Workload":
        """Inverse of :meth:`to_json`, without the memory image.

        ``rebuild`` (the kernel builder) runs on the first read of
        ``memory``; that read raises RuntimeError unless the rebuilt
        workload's :meth:`to_json` equals this one's.  Malformed data
        raises KeyError, TypeError or ValueError.
        """
        workload = cls(
            name=str(data["name"]),
            program=Program.from_json(data["program"]),
            memory=None, max_uops=int(data["max_uops"]),
            description=str(data["description"]),
            warmup_fraction=float(data["warmup_fraction"]))
        workload._rebuild = rebuild
        return workload

    @property
    def memory(self) -> Dict[int, int]:
        """The initial memory image, built on first read if restored."""
        if self._memory is None:
            built = self._rebuild()
            if built.to_json() != self.to_json():
                raise RuntimeError(
                    f"{self.name}: the kernel builder's program differs "
                    f"from the stored one")
            self._memory = built.memory
            self._rebuild = None
        return self._memory

    def trace(self) -> List[DynUop]:
        """The dynamic uop trace (functional execution, memoized).

        Resolution order: in-process memo, then the installed
        ``trace_loader`` (the on-disk compiled-trace store), then
        functional execution of ``program`` on ``memory`` — which is
        persisted through ``trace_saver`` so the next process
        deserializes instead.
        """
        if self._trace_cache is None:
            trace = self.trace_loader() if self.trace_loader else None
            if trace is None:
                trace = execute(
                    self.program, self.memory, max_uops=self.max_uops,
                    require_halt=False)
                if self.trace_saver is not None:
                    self.trace_saver(trace)
            self._trace_cache = trace
        return self._trace_cache

    def warmup_uops(self) -> int:
        return int(len(self.trace()) * self.warmup_fraction)


#: Type of a kernel builder: scale stretches iteration counts.
WorkloadBuilder = Callable[..., Workload]


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def fill_random_words(memory: Dict[int, int], base: int, count: int,
                      max_value: int, rng: random.Random,
                      stride: int = 8) -> None:
    """Initialise ``count`` words at ``base`` with values in [0, max)."""
    for i in range(count):
        memory[base + i * stride] = rng.randrange(max_value)


def fill_bits(memory: Dict[int, int], base: int, count: int,
              taken_probability: float, rng: random.Random) -> None:
    """Initialise a 0/1 table with the given bias."""
    for i in range(count):
        memory[base + i * 8] = 1 if rng.random() < taken_probability else 0


def build_pointer_ring(memory: Dict[int, int], base: int, nodes: int,
                       node_bytes: int, rng: random.Random) -> int:
    """Lay out a randomly permuted singly linked ring; returns the head.

    Each node's first word holds the address of the next node; the second
    word holds a random payload.
    """
    order = list(range(nodes))
    rng.shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        addr = base + here * node_bytes
        memory[addr] = base + there * node_bytes
        memory[addr + 8] = rng.randrange(1 << 30)
    return base + order[0] * node_bytes


def emit_filler(b: ProgramBuilder, uops: int, start_reg: int = 20,
                fp: bool = False) -> None:
    """Emit non-critical compute that never feeds loads or branches (the
    'rest of the loop body').

    The chains are short (4 uops) and restart from an immediate, so the
    filler carries no dependence across loop iterations — it is work the
    core can always overlap, exactly the kind of instruction CDF delays
    without hurting the critical path.
    """
    regs = [start_reg, start_reg + 1, start_reg + 2]
    i = 0
    while i < uops:
        r = regs[(i // 4) % 3]
        phase = i % 4
        if phase == 0:
            b.movi(r, 7 + i)
        elif fp and phase == 2:
            b.fmul(r, r, imm=3)
        elif fp and phase == 3:
            b.fadd(r, r, imm=7)
        else:
            b.add(r, r, imm=1)
        i += 1


def scaled(iterations: int, scale: float, minimum: int = 8) -> int:
    return max(minimum, int(iterations * scale))
