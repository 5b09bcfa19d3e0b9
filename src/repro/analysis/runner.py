"""simlint driver: walk files, apply rules, report.

``lint_paths`` is the programmatic entry point (the tier-1 repo-clean
test calls it directly); ``main`` backs the ``repro-sim lint``
subcommand.  Every rule runs module by module.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .core import Finding, LintContext, Rule, module_name_for
from .report import render_sarif, render_text
from .rules import ALL_RULES, rule_by_id

__all__ = ["LintReport", "lint_paths", "lint_source", "main"]


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(p for p in path.rglob("*.py")
                         if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            files.append(path)
    return sorted(set(files))


def _relpath(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def build_context(path: Path, source: str,
                  root: Optional[Path] = None,
                  module: Optional[str] = None) -> LintContext:
    return LintContext(
        path=path,
        relpath=_relpath(path, root),
        module=module if module is not None else module_name_for(path),
        lines=source.splitlines(),
        tree=ast.parse(source, filename=str(path)),
    )


def _check(rules: Optional[Sequence[Rule]],
           contexts: Sequence[LintContext]) -> List[Finding]:
    found = [finding for rule in (rules if rules is not None else ALL_RULES)
             for ctx in contexts for finding in rule.check(ctx)]
    return sorted(found, key=Finding.sort_key)


def lint_source(source: str, rules: Optional[Sequence[Rule]] = None,
                module: str = "snippet",
                path: str = "<snippet>") -> List[Finding]:
    """Lint an in-memory snippet (the rule-fixture tests use this)."""
    return _check(rules, [build_context(Path(path), source, module=module)])


def lint_paths(paths: Sequence[Path],
               rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Lint files/directories; returns a :class:`LintReport`.

    Paths in findings are relative to the parent of a single directory
    argument (``repro/core/pipeline.py``), else as given.
    """
    root = paths[0].parent if len(paths) == 1 and paths[0].is_dir() \
        else None
    report = LintReport()
    checked: List[LintContext] = []
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
            checked.append(build_context(file_path, source, root=root))
        except (SyntaxError, UnicodeDecodeError) as exc:
            report.parse_errors.append(f"{file_path}: {exc}")
    report.files_checked = len(checked)
    report.findings = _check(rules, checked)
    return report


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def default_lint_root() -> Path:
    """The installed ``repro`` package: what ``repro-sim lint`` checks
    when invoked with no paths."""
    import repro
    return Path(repro.__file__).parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim lint",
        description="simlint: determinism/config/counter static analysis "
                    "for the simulator (see docs/analysis.md)")
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: the repro package)")
    parser.add_argument(
        "--select", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--sarif-out", type=Path, default=None, metavar="FILE",
        help="also write a SARIF 2.1.0 report to FILE")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    return parser


def _list_rules() -> str:
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    rules: Sequence[Rule] = ALL_RULES
    if args.select:
        try:
            rules = [rule_by_id(rule_id.strip())
                     for rule_id in args.select.split(",")
                     if rule_id.strip()]
        except KeyError as exc:
            print(f"simlint: {exc.args[0]}", file=sys.stderr)
            return 2
    report = lint_paths(args.paths or [default_lint_root()], rules=rules)
    if args.sarif_out is not None:
        args.sarif_out.write_text(render_sarif(report, rules),
                                  encoding="utf-8")
    print(render_text(report))
    for error in report.parse_errors:
        print(f"simlint: parse error: {error}", file=sys.stderr)
    return 0 if report.clean else 1
