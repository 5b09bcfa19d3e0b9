"""TIME001 — cycle monotonicity (dataflow tier).

PR 5's writeback bug: dirty victims were written back with
``self.dram.access(0, ...)`` — timestamp literal zero — so every
writeback landed at cycle 0 and DRAM bank/bus contention evaporated.
The whole class is "a timestamp that does not derive from the current
cycle": literal constants, or locals whose reaching definitions never
touch a cycle-like quantity.

This rule knows the timestamped entry points of the memory hierarchy
and the scheduler's completion-event queue, resolves aliased callees
through reaching definitions (``ifetch = self.mem.ifetch``), expands
timestamp arguments through local definitions, and flags any argument
with no cycle-derived source.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Tuple

from .core import Finding, LintContext, Rule
from .cfg import FunctionNode, iter_function_defs, stmt_expressions
from .dataflow import FunctionAnalysis, analyze_function
from .semantics import expanded_dotteds, expression_texts, unparse

__all__ = ["CycleMonotonicityRule"]

#: identifiers that mark a value as derived from simulated time
_CYCLEISH = re.compile(
    r"cycle|complet|issue|probe|expir|ready|resume|when|tick|"
    r"timestamp|retire|commit_at|deadline", re.IGNORECASE)

#: attr name -> (positional timestamp args, receiver-hint regex).
#: A None hint means the attr name alone is distinctive enough.
_TIMED_CALLS: Tuple[Tuple[str, Tuple[int, ...], Optional[str]], ...] = (
    ("load", (0,), r"mem"),
    ("ifetch", (0,), r"mem"),
    ("store_commit", (0,), r"mem"),
    ("access", (0,), r"dram"),
    ("expire", (0,), r"mshr"),
    ("allocate", (1,), r"mshr"),
    ("on_mem_request", (0, 1), None),
    ("_complete_at", (1, 2), None),
)

#: telemetry/driver layers that don't feed simulated state
_EXEMPT_MODULES = ("repro.harness", "repro.cli", "repro.analysis",
                   "repro.obs")


class CycleMonotonicityRule(Rule):
    id = "TIME001"
    name = "cycle monotonicity"
    rationale = (
        "Timestamps entering the memory hierarchy or the event queue "
        "must derive from the current cycle. A literal 0 or a stale "
        "local (the PR 5 writeback bug) time-travels the request, "
        "silently deleting contention while every run still completes.")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        module = ctx.module
        for exempt in _EXEMPT_MODULES:
            if module == exempt or module.startswith(exempt + "."):
                return
        for func in iter_function_defs(ctx.tree):
            yield from self._check_function(ctx, func)

    # ------------------------------------------------------------------
    def _check_function(self, ctx: LintContext,
                        func: FunctionNode) -> Iterator[Finding]:
        analysis = analyze_function(func)
        for block_id in analysis.cfg.block_ids():
            for stmt in analysis.cfg.blocks[block_id].stmts:
                for node in stmt_expressions(stmt):
                    if isinstance(node, ast.Call):
                        yield from self._check_call(ctx, node, stmt,
                                                    analysis)

    def _check_call(self, ctx: LintContext, call: ast.Call,
                    stmt: ast.stmt, analysis: FunctionAnalysis
                    ) -> Iterator[Finding]:
        spec = self._match_spec(call, stmt, analysis)
        if spec is not None:
            attr, positions = spec
            for position in positions:
                if position < len(call.args):
                    yield from self._check_timestamp(
                        ctx, call.args[position], stmt, analysis,
                        f"argument {position} of `{attr}`")
            return
        # scheduler: heapq.heappush(self.events, (timestamp, ...))
        callee = call.func
        if isinstance(callee, (ast.Name, ast.Attribute)):
            name = callee.id if isinstance(callee, ast.Name) \
                else callee.attr
            if name == "heappush" and len(call.args) >= 2:
                heap_paths = expanded_dotteds(call.args[0], analysis,
                                              stmt)
                if any("events" in path for path in heap_paths):
                    entry = call.args[1]
                    if isinstance(entry, ast.Tuple) and entry.elts:
                        yield from self._check_timestamp(
                            ctx, entry.elts[0], stmt, analysis,
                            "event-queue sort key")

    def _match_spec(self, call: ast.Call, stmt: ast.stmt,
                    analysis: FunctionAnalysis
                    ) -> Optional[Tuple[str, Tuple[int, ...]]]:
        callee = call.func
        receiver_paths: List[str] = []
        attr: Optional[str] = None
        if isinstance(callee, ast.Attribute):
            attr = callee.attr
            receiver_paths = expanded_dotteds(callee.value, analysis,
                                              stmt)
            if not receiver_paths:
                # super()._complete_at(...) and friends
                receiver_paths = [unparse(callee.value)]
        elif isinstance(callee, ast.Name):
            # aliased bound method: `ifetch = self.mem.ifetch`
            for source in analysis.reaching.name_sources(callee, stmt):
                if isinstance(source, ast.Attribute):
                    attr = source.attr
                    receiver_paths = [unparse(source.value)]
                    break
        if attr is None:
            return None
        for known_attr, positions, hint in _TIMED_CALLS:
            if attr != known_attr:
                continue
            if hint is None:
                return attr, positions
            pattern = re.compile(hint, re.IGNORECASE)
            if any(pattern.search(path) for path in receiver_paths):
                return attr, positions
        return None

    def _check_timestamp(self, ctx: LintContext, arg: ast.expr,
                         stmt: ast.stmt, analysis: FunctionAnalysis,
                         what: str) -> Iterator[Finding]:
        if isinstance(arg, ast.Constant) and isinstance(
                arg.value, (int, float)) and not isinstance(
                arg.value, bool):
            yield ctx.finding(
                self, arg,
                f"literal timestamp `{arg.value}` as {what} — "
                f"timestamps must derive from the current cycle "
                f"(the PR 5 writeback-at-0 bug class)")
            return
        # a well-named local is no defense if every reaching value is a
        # numeric literal: `when = 0; heappush(events, (when, ...))`
        sources = analysis.reaching.name_sources(arg, stmt)
        if sources and all(
                isinstance(source, ast.Constant) and
                isinstance(source.value, (int, float)) and
                not isinstance(source.value, bool)
                for source in sources):
            yield ctx.finding(
                self, arg,
                f"timestamp {what} (`{unparse(arg)}`) only ever holds "
                f"numeric literal(s) — timestamps must derive from the "
                f"current cycle (the PR 5 writeback-at-0 bug class)")
            return
        texts = expression_texts(arg, analysis, stmt)
        if not any(_CYCLEISH.search(text) for text in texts):
            yield ctx.finding(
                self, arg,
                f"timestamp {what} (`{unparse(arg)}`) has no "
                f"cycle-derived source — expands to "
                f"{', '.join(repr(t) for t in texts[:3])}")
