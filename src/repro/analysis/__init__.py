"""simlint: domain-specific static analysis for the simulator.

The experiment engine's content-addressed result cache is only sound
if every simulation is a pure, deterministic function of (workload,
scale, seed, SimConfig, code).  This package machine-checks the bug
classes that silently break that contract.  Its eight rules
(DET001-003, CFG001, STAT001, NUM001, ARCH001, API001) pattern-match a
single module's AST: unseeded RNG, hash-order iteration, wall-clock
leakage, caller-config mutation, typo'd counter keys, float drift,
layering violations and mutable default arguments.  Timing, level
gating, capacity and process-sharing bugs are left to the runtime
gates (fingerprint pins, the invariant checker and the differential
oracle), which catch them by their effect on results.

A rule's ``ALLOWED_MODULES`` is the one way to exempt code from it.
Run it as ``repro-sim lint [paths...]``; see ``docs/analysis.md`` for
the rule catalogue.
"""

from .core import Finding, LintContext, Rule
from .rules import ALL_RULES, rule_by_id
from .runner import LintReport, lint_paths, lint_source, main

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintContext",
    "LintReport",
    "Rule",
    "lint_paths",
    "lint_source",
    "main",
    "rule_by_id",
]
