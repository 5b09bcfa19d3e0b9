"""simlint framework: findings, rules, lint context.

A :class:`Rule` inspects one module's AST and yields :class:`Finding`
objects.  The :class:`LintContext` hands every rule the same parsed
tree, source lines, and the module's dotted name (``repro.cdf.cct``),
which is what allowlists and the layering rule key on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Tuple

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str                 # POSIX-style path, relative to the lint root
    line: int                 # 1-based
    col: int                  # 0-based
    message: str
    snippet: str = ""         # stripped source line, for the text report

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        location = f"{self.path}:{self.line}:{self.col + 1}"
        return f"{location}: {self.rule} {self.message}"


@dataclass
class LintContext:
    """Everything a rule needs to inspect one module."""

    path: Path                # absolute path on disk
    relpath: str              # POSIX path relative to the lint root
    module: str               # dotted module name, e.g. 'repro.cdf.cct'
    lines: List[str]
    tree: ast.AST

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=rule.id, path=self.relpath, line=line,
                       col=col, message=message,
                       snippet=self.line_text(line))


def module_name_for(path: Path) -> str:
    """Derive a dotted module name from a file path.

    Walks the path components looking for the ``repro`` package root so
    both ``src/repro/cdf/cct.py`` and an installed
    ``.../site-packages/repro/cdf/cct.py`` map to ``repro.cdf.cct``.
    Files outside any ``repro`` tree fall back to their stem.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return ".".join(parts[index:])
    return parts[-1] if parts else ""


class Rule:
    """Base class: one named, documented invariant over a module AST.

    Subclasses set ``id`` / ``name`` / ``rationale`` and implement
    :meth:`check`.  Rules must be deterministic themselves: iterate
    sorted structures, never sets (simlint lints its own source).
    """

    id: str = "RULE000"
    name: str = "unnamed"
    #: One paragraph: why violating this breaks the simulator contract.
    rationale: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover
