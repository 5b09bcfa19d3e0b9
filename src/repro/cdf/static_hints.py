"""Compiler-assisted CDF: statically generated chain hints.

The paper's future work (Sec. 6): 'While compilers cannot identify
critical instructions and find the optimal level of loop unrolling
statically, they can be used to augment CDF by statically generating a
set of possible chains that CDF can then choose to fetch and execute at
runtime. This can help reduce the hardware overhead and complexity of
CDF significantly.'

This module implements that flow as a profile-guided 'compiler pass':

1. :func:`profile_chains` runs a short profiling execution on the
   baseline core, observes which loads missed the LLC and which branches
   mispredicted, and slices their backward dependence chains over the
   dynamic trace — the software analogue of the Fill Buffer walk.
2. The result is a :class:`StaticChainHints` artifact: per-basic-block
   critical masks, the hints a compiler would emit alongside the binary.
3. :func:`preload_hints` installs the hinted traces into a CDF pipeline's
   Critical Uop Cache and Mask Cache *before* simulation starts, letting
   CDF mode engage without waiting for the first 10k-instruction
   hardware training interval. The hardware CCT/Fill Buffer then refine
   the hints at runtime exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..config import SimConfig
from ..core.pipeline import BaselinePipeline
from ..isa.dynuop import DynUop
from ..isa.program import Program
from ..stats import mark_critical_chains


@dataclass
class StaticChainHints:
    """Per-basic-block critical-uop masks, as a compiler would emit."""

    bb_masks: Dict[int, int] = field(default_factory=dict)
    bb_ends_in_branch: Dict[int, bool] = field(default_factory=dict)
    #: Fraction of profiled uops marked critical (compiler diagnostics).
    critical_fraction: float = 0.0

    def __len__(self) -> int:
        return len(self.bb_masks)


def profile_chains(program: Program, trace: Sequence[DynUop],
                   profile_uops: Optional[int] = None) -> StaticChainHints:
    """Profile-guided chain generation (the 'compiler pass').

    Runs the baseline core over a prefix of the trace, collects the
    observed critical roots, slices their chains over the true dataflow,
    and folds the marks into per-basic-block masks.
    """
    profile_trace = list(trace[:profile_uops]) if profile_uops else trace
    pipeline = BaselinePipeline(profile_trace, SimConfig.baseline(),
                                benchmark="profile")
    pipeline.run()
    critical = mark_critical_chains(
        profile_trace, [*pipeline.llc_miss_load_seqs,
                        *pipeline.mispredicted_branch_seqs])

    hints = StaticChainHints()
    marked = 0
    for uop in profile_trace:
        bb = program.basic_block_start(uop.pc)
        hints.bb_masks.setdefault(bb, 0)
        if uop.seq in critical:
            hints.bb_masks[bb] |= 1 << (uop.pc - bb)
            marked += 1
        if uop.is_branch:
            hints.bb_ends_in_branch[bb] = True
    hints.critical_fraction = marked / len(profile_trace) \
        if profile_trace else 0.0
    return hints


def preload_hints(pipeline, hints: StaticChainHints) -> int:
    """Install *hints* into a CDF pipeline before it runs.

    Returns the number of basic blocks installed. The pipeline's own
    density gates still apply: a compiler emitting everything-critical
    would be as useless to CDF as hardware overmarking.
    """
    cdf = pipeline.cdf_cfg
    if (hints.critical_fraction < cdf.min_critical_fraction
            or hints.critical_fraction > cdf.max_critical_fraction):
        pipeline.counters.bump("static_hints_rejected")
        return 0
    installed = 0
    for bb, mask in hints.bb_masks.items():
        merged = pipeline.mask_cache.accumulate(bb, mask)
        pipeline.uop_cache.fill(
            bb, merged, hints.bb_ends_in_branch.get(bb, False),
            valid_from=0)
        installed += 1
    pipeline.counters.bump("static_hint_blocks", installed)
    return installed
