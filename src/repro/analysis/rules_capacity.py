"""GRD001 — guarded-capacity mutation (dataflow tier).

PR 3's bug: the CDF partition rebalance grew ``critical_size`` past
``total - min_noncritical`` because the growth expression lost its
clamp.  Generalized: any occupancy-increasing mutation of a sized
structure (ROB/RS/LSQ/PRF shares, MSHR files, bounded FIFOs, fetch
buffers, partition sizes) must be *provably bounded* — by a dominating
capacity test, by a ``min``/``max`` clamp in the value's reaching
definitions, or, for allocator helpers, by a capacity gate dominating
every project call site (found through the call graph).

That last excusal is what lets ``_allocate`` stay guard-free while
the dispatch stages hold the gate — in line in the base ``_dispatch``,
through ``_allocation_block_reason`` in the CDF one — while still
flagging a *new* caller that skips the gate.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .core import Finding, ProjectRule
from .callgraph import CallSite, FunctionInfo, ProjectContext
from .cfg import stmt_expressions
from .dataflow import FunctionAnalysis
from .semantics import AnalysisCache, expanded_dotteds, unparse

__all__ = ["GuardedCapacityRule"]


@dataclass(frozen=True)
class _Structure:
    """One family of sized structures."""

    label: str
    occupancy: "re.Pattern[str]"      # matches the mutated symbol
    capacity: "re.Pattern[str]"       # matches a bounding test/clamp


def _structure(label: str, occupancy: str, capacity: str) -> _Structure:
    return _Structure(label=label,
                      occupancy=re.compile(occupancy),
                      capacity=re.compile(capacity, re.IGNORECASE))


_STRUCTURES: Tuple[_Structure, ...] = (
    _structure("ROB", r"^rob(_crit)?$",
               r"rob|_block_reason|critical_size|noncritical_size"),
    _structure("RS/LSQ share", r"^(rs|lq|sq)(_crit)?_used$",
               r"size|_block_reason"),
    _structure("PRF writers", r"^writers(_crit)?(_inflight)?$",
               r"prf|writer|_block_reason"),
    _structure("frontend queue", r"^frontend_q$", r"frontend"),
    _structure("critical fetch buffer", r"^crit_fetch_buffer$",
               r"crit_fetch"),
    _structure("partition share", r"^(non)?critical_size$",
               r"total|min_noncritical|min_critical"),
    _structure("bounded FIFO", r"^(dbq|cmq)$", r"full|dbq|cmq"),
    _structure("FIFO backing deque", r"^_q$", r"full|capacity"),
    _structure("MSHR file", r"^(_outstanding|.*mshrs?)$",
               r"can_allocate|mshr|capacity"),
)

#: functions whose return value encodes "is there room"
_GATE_FN = re.compile(r"_block_reason|can_allocate|has_room|full",
                      re.IGNORECASE)

_GROW_METHODS = ("append", "appendleft", "push", "add", "insort",
                 "allocate")

_EXEMPT_MODULES = ("repro.harness", "repro.cli", "repro.analysis",
                   "repro.obs", "repro.verify", "repro.workloads")


@dataclass
class _Growth:
    """One occupancy-increasing mutation."""

    node: ast.AST                 # node to report
    stmt: ast.stmt
    structure: _Structure
    symbol: str                   # matched occupancy symbol
    info: FunctionInfo            # function containing the mutation
    value: Optional[ast.expr]     # RHS for augmented assignment


class GuardedCapacityRule(ProjectRule):
    id = "GRD001"
    name = "guarded-capacity mutation"
    rationale = (
        "Growing a sized structure (ROB/RS/LSQ share, MSHR file, "
        "bounded FIFO, partition size) without a dominating capacity "
        "check or a min/max clamp overflows silently — the PR 3 CDF "
        "rebalance bug class. Allocator helpers are accepted when "
        "every project call site is capacity-gated.")

    def check_project(self,
                      project: ProjectContext) -> Iterator[Finding]:
        cache = AnalysisCache()
        for _name, infos in sorted(project.functions.items()):
            for info in infos:
                if _is_exempt(info.module):
                    continue
                yield from self._check_function(project, info, cache)

    # ------------------------------------------------------------------
    def _check_function(self, project: ProjectContext,
                        info: FunctionInfo, cache: AnalysisCache
                        ) -> Iterator[Finding]:
        analysis = cache.get(info.node)  # type: ignore[arg-type]
        growths = _find_growths(info, analysis)
        for growth in growths:
            if _is_transfer(growth, analysis):
                continue
            if _locally_bounded(growth, analysis):
                continue
            # allocator excusal: every caller must hold the gate
            sites = project.call_sites.get(info.name, [])
            external = [site for site in sites
                        if site.caller.key != info.key and
                        _site_targets(project, site, info)]
            if external:
                ungated = [
                    site for site in external
                    if not _site_gated(site, growth.structure, cache)]
                for site in ungated:
                    if _is_exempt(site.caller.module):
                        continue
                    yield site.caller.ctx.finding(
                        self, site.call,
                        f"call to allocator `{info.name}` (grows "
                        f"{growth.structure.label} `{growth.symbol}`) "
                        f"is not dominated by a capacity gate")
                continue
            yield info.ctx.finding(
                self, growth.node,
                f"{growth.structure.label} `{growth.symbol}` grows "
                f"without a dominating capacity check or min/max "
                f"clamp (the PR 3 rebalance bug class)")


def _is_exempt(module: str) -> bool:
    for exempt in _EXEMPT_MODULES:
        if module == exempt or module.startswith(exempt + "."):
            return True
    return False


def _last_segment(path: str) -> str:
    return path.rsplit(".", 1)[-1]


def _match_structure(paths: List[str]
                     ) -> Optional[Tuple[_Structure, str]]:
    for path in paths:
        segment = _last_segment(path)
        for structure in _STRUCTURES:
            if structure.occupancy.search(segment):
                return structure, segment
    return None


def _find_growths(info: FunctionInfo,
                  analysis: FunctionAnalysis) -> List[_Growth]:
    growths: List[_Growth] = []
    cfg = analysis.cfg
    for block_id in cfg.block_ids():
        for stmt in cfg.blocks[block_id].stmts:
            if isinstance(stmt, ast.AugAssign) and \
                    isinstance(stmt.op, ast.Add):
                paths = expanded_dotteds(stmt.target, analysis, stmt)
                matched = _match_structure(paths)
                if matched is not None:
                    growths.append(_Growth(
                        node=stmt, stmt=stmt, structure=matched[0],
                        symbol=matched[1], info=info,
                        value=stmt.value))
            for node in stmt_expressions(stmt):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in _GROW_METHODS:
                    paths = expanded_dotteds(node.func.value, analysis,
                                             stmt)
                    matched = _match_structure(paths)
                    if matched is not None:
                        growths.append(_Growth(
                            node=node, stmt=stmt,
                            structure=matched[0], symbol=matched[1],
                            info=info, value=None))
                elif isinstance(node, ast.Subscript) and isinstance(
                        getattr(node, "ctx", None), ast.Store):
                    paths = expanded_dotteds(node.value, analysis,
                                             stmt)
                    matched = _match_structure(paths)
                    if matched is not None:
                        growths.append(_Growth(
                            node=node, stmt=stmt,
                            structure=matched[0], symbol=matched[1],
                            info=info, value=None))
    # dedupe: a statement may be walked once as stmt and once nested
    unique: List[_Growth] = []
    for growth in growths:
        if not any(g.node is growth.node for g in unique):
            unique.append(growth)
    return unique


def _is_transfer(growth: _Growth,
                 analysis: FunctionAnalysis) -> bool:
    """A paired `+=` / `-=` on the same structure family in the same
    basic block moves occupancy between partitions; net growth is
    zero (e.g. the CDF critical->shared share handoff)."""
    block_id = analysis.cfg.block_of.get(id(growth.stmt))
    if block_id is None:
        return False
    for stmt in analysis.cfg.blocks[block_id].stmts:
        if isinstance(stmt, ast.AugAssign) and \
                isinstance(stmt.op, ast.Sub):
            paths = expanded_dotteds(stmt.target, analysis, stmt)
            for path in paths:
                if growth.structure.occupancy.search(
                        _last_segment(path)):
                    return True
    return False


def _locally_bounded(growth: _Growth,
                     analysis: FunctionAnalysis) -> bool:
    capacity = growth.structure.capacity
    for test in analysis.dominating_tests(growth.stmt):
        if capacity.search(unparse(test)):
            return True
        if _gate_derived(test, growth.stmt, analysis):
            return True
    if growth.value is not None and _clamped(growth.value, growth.stmt,
                                             analysis, capacity):
        return True
    return False


def _gate_derived(test: ast.expr, stmt: ast.stmt,
                  analysis: FunctionAnalysis) -> bool:
    """The test examines a local produced by a capacity-gate function
    (``reason = self._allocation_block_reason(uop)`` ... ``if reason
    is not None: break``)."""
    if _GATE_FN.search(unparse(test)):
        return True
    for node in ast.walk(test):
        if isinstance(node, ast.Name):
            for source in analysis.reaching.name_sources(node, stmt):
                if isinstance(source, ast.Call):
                    callee = source.func
                    name = callee.attr if isinstance(
                        callee, ast.Attribute) else (
                        callee.id if isinstance(callee, ast.Name)
                        else "")
                    if _GATE_FN.search(name):
                        return True
    return False


def _clamped(value: ast.expr, stmt: ast.stmt,
             analysis: FunctionAnalysis,
             capacity: "re.Pattern[str]") -> bool:
    """Every non-trivial reaching source of *value* carries a min/max
    clamp mentioning a capacity symbol."""
    sources = analysis.reaching.name_sources(value, stmt)
    saw_growth_source = False
    for source in sources:
        if isinstance(source, ast.Constant):
            if isinstance(source.value, (int, float)) and \
                    source.value <= 0:
                continue            # grows by nothing
            saw_growth_source = True
            if not _has_clamp(source, stmt, analysis, capacity):
                return False
            continue
        saw_growth_source = True
        if not _has_clamp(source, stmt, analysis, capacity):
            return False
    return saw_growth_source


def _has_clamp(source: ast.AST, stmt: ast.stmt,
               analysis: FunctionAnalysis,
               capacity: "re.Pattern[str]") -> bool:
    texts = [unparse(source)]
    for node in ast.walk(source):
        if isinstance(node, ast.Name):
            for inner in analysis.reaching.name_sources(node, stmt):
                if inner is not node:
                    texts.append(unparse(inner))
    for text in texts:
        if ("min(" in text or "max(" in text) and capacity.search(text):
            return True
    return False


def _site_targets(project: ProjectContext, site: CallSite,
                  info: FunctionInfo) -> bool:
    """Could this call site actually invoke *info*?  The name-based
    call graph over-approximates; for ``self.f(...)`` sites the caller's
    class must be related to the allocator's class, or a same-named
    method elsewhere (e.g. TAGE's ``_allocate`` vs the pipeline's)
    would drag in callers that can never reach it."""
    func = site.call.func
    if isinstance(func, ast.Attribute) and \
            isinstance(func.value, ast.Name) and func.value.id == "self":
        if info.class_name is None or site.caller.class_name is None:
            return False
        if site.caller.class_name == info.class_name:
            return True
        return _classes_related(project, site.caller.class_name,
                                info.class_name)
    if isinstance(func, ast.Name):
        # a bare name cannot call a method
        return info.class_name is None
    return True


def _classes_related(project: ProjectContext, first: str,
                     second: str) -> bool:
    for cls in project.classes.get(first, []):
        if any(base.name == second
               for base in project.resolve_bases(cls)):
            return True
    for cls in project.classes.get(second, []):
        if any(base.name == first
               for base in project.resolve_bases(cls)):
            return True
    return False


def _site_gated(site: CallSite, structure: _Structure,
                cache: AnalysisCache) -> bool:
    analysis = cache.get(site.caller.node)  # type: ignore[arg-type]
    for test in analysis.dominating_tests(site.stmt):
        if structure.capacity.search(unparse(test)):
            return True
        if _gate_derived(test, site.stmt, analysis):
            return True
    return False
