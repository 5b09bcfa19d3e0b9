"""The FDIV-chain kernel for the criticality-beyond-loads study.

The paper's future work (Sec. 6) notes that CDF's mechanism is 'not
fundamentally limited to loads'.  This kernel has no cache misses at
all: its critical path is a serial chain of long-latency FDIVs, so CDF
with load criticality only finds nothing to accelerate, while CDF with
long-latency roots marked critical
(``CDFConfig.mark_longlat_critical``) can fetch the chains ahead of the
light loop body around them.
"""

from __future__ import annotations

from ..isa import ProgramBuilder
from .base import DEFAULT_SEED, Workload, scaled


def build_fdiv_chain(scale: float = 1.0,
                     seed: int = DEFAULT_SEED) -> Workload:
    """Independent serial-FDIV chains inside a light loop body: 1000
    iterations at scale 1.0, never fewer than 600.  The kernel reads no
    data, so *seed* changes nothing."""
    iters = scaled(1000, scale, minimum=600)
    b = ProgramBuilder()
    b.movi(1, iters)
    b.label("loop")
    b.movi(4, 17)
    for _ in range(12):
        b.fdiv(4, 4, imm=3)
    b.fadd(5, 5, 4)
    for i in range(30):
        b.movi(20 + i % 6, 7 + i)
    b.sub(1, 1, imm=1)
    b.bnez(1, "loop")
    b.halt()
    return Workload(name="fdiv_chain", program=b.build(), memory={},
                    max_uops=iters * 46 + 200,
                    description="serial FDIV chains, no cache misses",
                    warmup_fraction=1 / 3)
