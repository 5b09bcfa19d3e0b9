"""CONC001 — process safety (dataflow tier).

The engine fans jobs out to a ``ProcessPoolExecutor``; ROADMAP item 1
turns that into a long-running distributed fleet.  Both are only sound
if worker-side code is a pure function of the ``Job``: a worker that
mutates a module global or class-level state computes results that
depend on *which jobs shared its process* — invisible locally,
catastrophic for the content-addressed result cache.

The rule discovers worker entry points structurally (functions
registered as ``JobKind(execute=...)`` handlers and functions passed
to ``.submit(...)``), walks the approximate call graph, and flags in
every reachable function: ``global`` declarations that are assigned,
class-attribute assignment, and mutation of module-level mutable
bindings.  Independently, it flags unpicklable values (lambdas, open
file handles) captured into ``Job(...)`` or ``.submit(...)`` calls.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from .core import Finding, ProjectRule
from .callgraph import FunctionInfo, ModuleGlobal, ProjectContext
from .cfg import stmt_expressions
from .semantics import dotted, iter_statements

__all__ = ["ProcessSafetyRule"]

#: calls whose constructed value is a mutable container
_MUTABLE_FACTORIES = ("dict", "list", "set", "OrderedDict",
                      "defaultdict", "deque", "Counter")

#: method calls that mutate their receiver in place
_MUTATORS = ("append", "add", "update", "pop", "popitem", "clear",
             "remove", "discard", "extend", "insert", "setdefault",
             "move_to_end", "appendleft", "__setitem__")


class ProcessSafetyRule(ProjectRule):
    id = "CONC001"
    name = "process safety"
    rationale = (
        "Worker-side code (reachable from JobKind handlers / pool "
        "submit targets) must be a pure function of the Job: mutating "
        "module globals or class-level state makes results depend on "
        "which jobs shared a worker process, silently poisoning the "
        "content-addressed result cache and any distributed sweep.")

    def check_project(self,
                      project: ProjectContext) -> Iterator[Finding]:
        entries = _worker_entries(project)
        reachable = project.reachable_from(entries)
        for info in reachable:
            yield from self._check_worker_function(project, info)
        yield from self._check_job_payloads(project)

    # ------------------------------------------------------------------
    def _check_worker_function(self, project: ProjectContext,
                               info: FunctionInfo) -> Iterator[Finding]:
        func = info.node
        assigned = _assigned_names(func)
        for stmt in iter_statements(func):  # type: ignore[arg-type]
            if isinstance(stmt, ast.Global):
                written = [n for n in stmt.names if n in assigned]
                if written:
                    yield info.ctx.finding(
                        self, stmt,
                        f"worker-reachable `{info.qualname}` assigns "
                        f"module global(s) {', '.join(written)} — "
                        f"per-process state leaks across jobs")
            yield from self._check_class_attr_store(info, stmt, project)
            yield from self._check_module_mutable(info, stmt, project,
                                                  assigned)

    def _check_class_attr_store(self, info: FunctionInfo,
                                stmt: ast.stmt,
                                project: ProjectContext
                                ) -> Iterator[Finding]:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            receiver = target.value
            if isinstance(receiver, ast.Name) and \
                    receiver.id in project.classes:
                yield info.ctx.finding(
                    self, target,
                    f"worker-reachable `{info.qualname}` assigns "
                    f"class attribute `{receiver.id}.{target.attr}` — "
                    f"class-level state is shared within a worker "
                    f"process")
            elif isinstance(receiver, ast.Attribute) and \
                    receiver.attr == "__class__":
                yield info.ctx.finding(
                    self, target,
                    f"worker-reachable `{info.qualname}` assigns "
                    f"through __class__ — class-level state is shared "
                    f"within a worker process")

    def _check_module_mutable(self, info: FunctionInfo,
                              stmt: ast.stmt, project: ProjectContext,
                              local_names: Dict[str, bool]
                              ) -> Iterator[Finding]:
        mutables = _mutable_globals(project, info.module)
        if not mutables:
            return
        for node in stmt_expressions(stmt):
            name: str = ""
            how: str = ""
            if isinstance(node, ast.Subscript) and isinstance(
                    getattr(node, "ctx", None),
                    (ast.Store, ast.Del)) and isinstance(
                    node.value, ast.Name):
                name, how = node.value.id, "subscript-assigns"
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) and \
                    node.func.attr in _MUTATORS and isinstance(
                    node.func.value, ast.Name):
                name = node.func.value.id
                how = f"calls .{node.func.attr}() on"
            if not name or name in local_names:
                continue
            if name in mutables:
                yield info.ctx.finding(
                    self, node,
                    f"worker-reachable `{info.qualname}` {how} "
                    f"module-level mutable `{name}` — per-process "
                    f"state leaks across jobs")

    # ------------------------------------------------------------------
    def _check_job_payloads(self,
                            project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.contexts:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                callee_name = ""
                if isinstance(callee, ast.Name):
                    callee_name = callee.id
                elif isinstance(callee, ast.Attribute):
                    callee_name = callee.attr
                if callee_name not in ("Job", "submit"):
                    continue
                payload_args = list(node.args) + \
                    [kw.value for kw in node.keywords]
                for arg in payload_args:
                    if isinstance(arg, ast.Lambda):
                        yield ctx.finding(
                            self, arg,
                            f"lambda captured into `{callee_name}` "
                            f"payload — unpicklable across the "
                            f"process boundary")
                    elif isinstance(arg, ast.Call) and \
                            isinstance(arg.func, ast.Name) and \
                            arg.func.id == "open":
                        yield ctx.finding(
                            self, arg,
                            f"open file handle captured into "
                            f"`{callee_name}` payload — unpicklable "
                            f"across the process boundary")


def _worker_entries(project: ProjectContext) -> List[FunctionInfo]:
    """Functions that run in worker processes: JobKind execute
    handlers, ``.submit(...)`` callables, and ``Process(target=...)``
    entry points — discovered structurally, not by name list."""
    entry_names: List[Tuple[str, str]] = []   # (module, function name)
    for ctx in project.contexts:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == "JobKind":
                for value in list(node.args) + \
                        [kw.value for kw in node.keywords]:
                    if isinstance(value, ast.Name):
                        entry_names.append((ctx.module, value.id))
            elif isinstance(callee, ast.Attribute) and \
                    callee.attr == "submit" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Name):
                    entry_names.append((ctx.module, first.id))
            elif _is_process_ctor(callee):
                # multiprocessing.Process(target=fn, ...): fn's body
                # runs in a fresh process, same sharing rules as a pool
                # worker.
                for keyword in node.keywords:
                    if keyword.arg == "target" and \
                            isinstance(keyword.value, ast.Name):
                        entry_names.append((ctx.module,
                                            keyword.value.id))
    entries: List[FunctionInfo] = []
    for module, name in entry_names:
        for info in project.functions.get(name, []):
            if info.module == module and info.class_name is None:
                entries.append(info)
    return entries


def _is_process_ctor(callee: ast.AST) -> bool:
    """Matches ``Process(...)``, ``multiprocessing.Process(...)`` and
    aliased module forms like ``mp.Process(...)``."""
    if isinstance(callee, ast.Name):
        return callee.id == "Process"
    return isinstance(callee, ast.Attribute) and \
        callee.attr == "Process"


def _assigned_names(func: ast.AST) -> Dict[str, bool]:
    """Names assigned anywhere in *func* (params count), as an
    insertion-ordered membership dict."""
    names: Dict[str, bool] = {}
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (list(args.posonlyargs) + list(args.args) +
                    list(args.kwonlyargs)):
            names[arg.arg] = True
        if args.vararg is not None:
            names[args.vararg.arg] = True
        if args.kwarg is not None:
            names[args.kwarg.arg] = True
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(
                getattr(node, "ctx", None), ast.Store):
            names[node.id] = True
    return names


def _mutable_globals(project: ProjectContext,
                     module: str) -> Dict[str, ModuleGlobal]:
    bindings = project.module_globals.get(module, {})
    mutables: Dict[str, ModuleGlobal] = {}
    for name, binding in bindings.items():
        value = binding.value
        if value is None:
            continue
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            mutables[name] = binding
        elif isinstance(value, ast.Call):
            callee = value.func
            callee_name = callee.id if isinstance(callee, ast.Name) \
                else (callee.attr if isinstance(callee, ast.Attribute)
                      else "")
            if callee_name in _MUTABLE_FACTORIES:
                mutables[name] = binding
    return mutables
