"""Synthetic SPEC-like workload suite (see DESIGN.md Sec. 5)."""

from .base import (
    BIG_REGION,
    DEFAULT_SEED,
    HEAP_REGION,
    INDEX_REGION,
    TABLE_REGION,
    Workload,
    build_pointer_ring,
    emit_filler,
    fill_bits,
    fill_random_words,
    make_rng,
)
from .suite import (
    BRANCH_SENSITIVE,
    NEUTRAL,
    PRE_FAVOURABLE,
    STUDY_PROGRAMS,
    SUITE,
    get_workload,
    suite_names,
)

__all__ = [
    "Workload",
    "SUITE",
    "STUDY_PROGRAMS",
    "get_workload",
    "suite_names",
    "BRANCH_SENSITIVE",
    "PRE_FAVOURABLE",
    "NEUTRAL",
    "BIG_REGION",
    "INDEX_REGION",
    "TABLE_REGION",
    "HEAP_REGION",
    "DEFAULT_SEED",
    "build_pointer_ring",
    "emit_filler",
    "fill_bits",
    "fill_random_words",
    "make_rng",
]
