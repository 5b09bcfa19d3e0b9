"""simlint framework: findings, rules, lint context, suppressions.

A :class:`Rule` inspects one module's AST and yields :class:`Finding`
objects.  The :class:`LintContext` hands every rule the same parsed
tree, source lines, and the module's dotted name (``repro.cdf.cct``),
which is what allowlists and the layering rule key on.

Suppression syntax (checked per physical line of the flagged node's
span, so multi-line statements can carry the directive on any of their
lines)::

    for t in set(xs):          # simlint: disable=DET002  <reason>
    # simlint: disable-next=DET002  <reason>
    for t in set(xs):
    # simlint: disable-file=DET003  <reason>   (anywhere in the file)

``disable=all`` silences every rule for the line.  Suppressions are
counted and surfaced in reports so they stay visible, not buried.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

__all__ = [
    "Directive",
    "Finding",
    "LintContext",
    "Rule",
    "Suppressions",
    "parse_suppressions",
]

_DIRECTIVE_RE = re.compile(
    r"#\s*simlint:\s*(disable|disable-next|disable-file)\s*=\s*"
    r"([A-Za-z0-9_,\s]+?)\s*(?:\s[^,].*)?$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str                 # POSIX-style path, relative to the lint root
    line: int                 # 1-based
    col: int                  # 0-based
    message: str
    snippet: str = ""         # stripped source line, for reports/baselines
    #: last physical line of the flagged node (suppression directives on
    #: any line of a multi-line statement count); 0 means same as `line`
    end_line: int = 0

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def baseline_key(self) -> str:
        """Line-number-insensitive identity used by the baseline file.

        Keyed on (rule, path, snippet) so grandfathered findings survive
        unrelated edits that shift line numbers, but a *new* instance of
        the same rule in the same file on a different line still fires.
        """
        return f"{self.rule}::{self.path}::{self.snippet}"

    def render(self) -> str:
        location = f"{self.path}:{self.line}:{self.col + 1}"
        return f"{location}: {self.rule} {self.message}"


@dataclass
class Directive:
    """One ``# simlint: disable...`` comment, with usage tracking.

    A directive that never suppressed a finding for any rule that
    actually ran is *stale* — dead weight that hides future findings —
    and is surfaced as an unused-suppression warning by the runner.
    """

    line: int                     # line the comment sits on (1-based)
    kind: str                     # disable | disable-next | disable-file
    rules: Tuple[str, ...]        # rule ids, possibly including 'all'
    #: rule ids this directive actually suppressed during the run
    used_for: Set[str] = field(default_factory=set)

    def matches(self, rule_id: str) -> bool:
        return rule_id in self.rules or "all" in self.rules

    def unused_rules(self, ran_rule_ids: Sequence[str]) -> List[str]:
        """Rule ids listed here that ran but suppressed nothing
        (``'all'`` is unused only if nothing at all was suppressed)."""
        unused: List[str] = []
        for rule_id in self.rules:
            if rule_id == "all":
                if ran_rule_ids and not self.used_for:
                    unused.append("all")
            elif rule_id in ran_rule_ids and rule_id not in self.used_for:
                unused.append(rule_id)
        return unused


@dataclass
class Suppressions:
    """Per-file suppression directives parsed from comments."""

    directives: List[Directive] = field(default_factory=list)
    #: effective line (1-based) -> directives applying to that line
    by_line: Dict[int, List[Directive]] = field(default_factory=dict)
    #: directives suppressing for the whole file
    file_wide: List[Directive] = field(default_factory=list)

    def add(self, directive: Directive) -> None:
        self.directives.append(directive)
        if directive.kind == "disable-file":
            self.file_wide.append(directive)
        else:
            offset = 1 if directive.kind == "disable-next" else 0
            self.by_line.setdefault(directive.line + offset,
                                    []).append(directive)

    def is_suppressed(self, rule_id: str, first_line: int,
                      last_line: int) -> bool:
        hit = False
        for directive in self.file_wide:
            if directive.matches(rule_id):
                directive.used_for.add(rule_id)
                hit = True
        if hit:
            return True
        for line in range(first_line, last_line + 1):
            for directive in self.by_line.get(line, []):
                if directive.matches(rule_id):
                    directive.used_for.add(rule_id)
                    hit = True
        return hit

    def unused(self, ran_rule_ids: Sequence[str]
               ) -> List[Tuple[Directive, List[str]]]:
        """(directive, unused rule ids) pairs for stale directives."""
        stale: List[Tuple[Directive, List[str]]] = []
        for directive in self.directives:
            unused_ids = directive.unused_rules(ran_rule_ids)
            if unused_ids:
                stale.append((directive, unused_ids))
        return stale


def _iter_comments(lines: Sequence[str]) -> List[Tuple[int, str]]:
    """(lineno, text) of every real comment token.

    Tokenizing (rather than regex-scanning raw lines) keeps directives
    quoted inside strings/docstrings — like the examples in this very
    module's docstring — from being parsed as live suppressions, which
    matters now that unused directives are reported.
    """
    source = "\n".join(lines) + "\n"
    try:
        return [(token.start[0], token.string)
                for token in tokenize.generate_tokens(
                    io.StringIO(source).readline)
                if token.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable source: fall back to raw lines so suppressions
        # still work (the file will fail with a parse error anyway).
        return list(enumerate(lines, start=1))


def parse_suppressions(lines: Sequence[str]) -> Suppressions:
    """Extract ``# simlint:`` directives from source comments."""
    supp = Suppressions()
    for lineno, text in _iter_comments(lines):
        match = _DIRECTIVE_RE.search(text)
        if match is None:
            continue
        ids = [part.strip() for part in match.group(2).split(",")
               if part.strip()]
        if not ids:
            continue
        supp.add(Directive(line=lineno, kind=match.group(1),
                           rules=tuple(ids)))
    return supp


@dataclass
class LintContext:
    """Everything a rule needs to inspect one module."""

    path: Path                # absolute path on disk
    relpath: str              # POSIX path relative to the lint root
    module: str               # dotted module name, e.g. 'repro.cdf.cct'
    source: str
    lines: List[str]
    tree: ast.AST
    suppressions: Suppressions

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST,
                message: str) -> Finding:
        first, last = node_span(node)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=rule.id, path=self.relpath, line=first,
                       col=col, message=message,
                       snippet=self.line_text(first), end_line=last)


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

    # ------------------------------------------------------------------
    def run(self, ctx: LintContext) -> Tuple[List[Finding], int]:
        """Apply the rule; returns (active findings, suppressed count)."""
        active: List[Finding] = []
        suppressed = 0
        for finding in self.check(ctx):
            end_line = finding.end_line or finding.line
            if ctx.suppressions.is_suppressed(self.id, finding.line,
                                              end_line):
                suppressed += 1
            else:
                active.append(finding)
        return active, suppressed


def node_span(node: ast.AST) -> Tuple[int, int]:
    """(first, last) physical line of *node*, tolerant of old ASTs."""
    first = getattr(node, "lineno", 1)
    last = getattr(node, "end_lineno", None) or first
    return first, last
