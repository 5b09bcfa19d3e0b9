"""simlint driver: walk files, apply rules, filter, report.

``lint_paths`` is the programmatic entry point (the tier-1 repo-clean
test calls it directly); ``main`` backs both ``python -m repro.analysis``
and the ``repro-sim lint`` subcommand.

Every rule runs module by module.  The runner also tracks per-rule wall
time (printed with ``--timings``; the CI lint job budgets the total) and
unused-suppression warnings (directives that no longer suppress any
finding of a rule that ran).
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .baseline import Baseline
from .core import Finding, LintContext, Rule, module_name_for, \
    parse_suppressions
from .report import render_json, render_sarif, render_text
from .rules import ALL_RULES, rule_by_id

__all__ = ["LintReport", "UnusedSuppression", "changed_files",
           "lint_paths", "lint_source", "main"]


@dataclass(frozen=True)
class UnusedSuppression:
    """A ``# simlint: disable`` directive that suppressed nothing."""

    path: str
    line: int
    rules: Tuple[str, ...]

    def render(self) -> str:
        return (f"{self.path}:{self.line}: unused suppression for "
                f"{', '.join(self.rules)} — no finding here; remove "
                f"the directive")


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    grandfathered: int = 0
    stale_baseline: List[str] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)
    #: rule id -> wall-clock seconds spent in that rule
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    unused_suppressions: List[UnusedSuppression] = \
        field(default_factory=list)

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
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    return LintContext(
        path=path,
        relpath=_relpath(path, root),
        module=module if module is not None else module_name_for(path),
        source=source,
        lines=lines,
        tree=tree,
        suppressions=parse_suppressions(lines),
    )


def lint_source(source: str, rules: Optional[Sequence[Rule]] = None,
                module: str = "snippet",
                path: str = "<snippet>") -> Tuple[List[Finding], int]:
    """Lint an in-memory snippet (the rule-fixture tests use this).

    Returns (findings, suppressed_count).
    """
    ctx = build_context(Path(path), source, module=module)
    active: List[Finding] = []
    suppressed = 0
    for rule in (rules if rules is not None else ALL_RULES):
        found, hidden = rule.run(ctx)
        active.extend(found)
        suppressed += hidden
    active.sort(key=Finding.sort_key)
    return active, suppressed


def lint_paths(paths: Sequence[Path],
               rules: Optional[Sequence[Rule]] = None,
               baseline: Optional[Baseline] = None,
               root: Optional[Path] = None,
               only: Optional[Sequence[Path]] = None
               ) -> LintReport:
    """Lint files/directories; returns a :class:`LintReport`.

    With *only* (the ``--changed`` path set), just the listed files
    under *paths* are parsed and checked.
    """
    chosen = list(rules) if rules is not None else list(ALL_RULES)
    files = iter_python_files(paths)
    if root is None and len(paths) == 1 and paths[0].is_dir():
        root = paths[0].parent
    if only is not None:
        wanted = {p.resolve() for p in only}
        files = [f for f in files if f.resolve() in wanted]
    report = LintReport()
    checked: List[LintContext] = []
    for file_path in files:
        try:
            source = file_path.read_text(encoding="utf-8")
            ctx = build_context(file_path, source, root=root)
        except (SyntaxError, UnicodeDecodeError) as exc:
            report.parse_errors.append(f"{file_path}: {exc}")
            continue
        checked.append(ctx)
    report.files_checked = len(checked)

    for rule in chosen:
        start = time.perf_counter()
        for ctx in checked:
            found, hidden = rule.run(ctx)
            report.findings.extend(found)
            report.suppressed += hidden
        report.rule_seconds[rule.id] = \
            report.rule_seconds.get(rule.id, 0.0) + \
            (time.perf_counter() - start)
    report.findings.sort(key=Finding.sort_key)

    ran_ids = [rule.id for rule in chosen]
    for ctx in checked:
        for directive, unused_ids in ctx.suppressions.unused(ran_ids):
            report.unused_suppressions.append(UnusedSuppression(
                path=ctx.relpath, line=directive.line,
                rules=tuple(unused_ids)))
    report.unused_suppressions.sort(
        key=lambda u: (u.path, u.line, u.rules))

    if baseline is not None:
        new, grandfathered, stale = baseline.filter(report.findings)
        report.findings = new
        report.grandfathered = grandfathered
        report.stale_baseline = stale
    return report


# --------------------------------------------------------------------------
# --changed support
# --------------------------------------------------------------------------

def _git(args: List[str], cwd: Path) -> Optional[str]:
    try:
        proc = subprocess.run(["git"] + args, cwd=cwd,
                              capture_output=True, text=True)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout


def changed_files(ref: Optional[str],
                  paths: Sequence[Path]) -> Optional[List[Path]]:
    """Python files changed vs *ref* (plus untracked ones), or None if
    git is unavailable / no ref resolves.

    With ``ref=None`` tries ``origin/main``, then ``main``, then
    ``HEAD`` — so ``--changed`` works in fresh clones and detached CI
    checkouts alike.
    """
    anchor = paths[0] if paths else Path.cwd()
    cwd = anchor if anchor.is_dir() else anchor.parent
    top = _git(["rev-parse", "--show-toplevel"], cwd)
    if top is None:
        return None
    root = Path(top.strip())
    candidates = [ref] if ref is not None else ["origin/main", "main",
                                                "HEAD"]
    resolved: Optional[str] = None
    for candidate in candidates:
        if candidate is not None and _git(
                ["rev-parse", "--verify", "--quiet",
                 candidate], root) is not None:
            resolved = candidate
            break
    if resolved is None:
        return None
    listed = _git(["diff", "--name-only", "--diff-filter=d", resolved,
                   "--", "*.py"], root)
    untracked = _git(["ls-files", "--others", "--exclude-standard",
                      "--", "*.py"], root)
    if listed is None:
        return None
    names = [line.strip() for line in listed.splitlines()
             if line.strip()]
    if untracked is not None:
        names.extend(line.strip() for line in untracked.splitlines()
                     if line.strip())
    return [root / name for name in sorted(dict.fromkeys(names))]


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
        "--format", choices=("text", "json", "sarif"), default="text",
        dest="output_format", help="report format (default: text)")
    parser.add_argument(
        "--select", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--rule", default=None, metavar="IDS",
        help="synonym for --select (comma-separated rule ids)")
    parser.add_argument(
        "--changed", nargs="?", const="", default=None, metavar="REF",
        help="lint only files changed vs REF (default: origin/main, "
             "falling back to main, then HEAD)")
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help="JSON baseline of grandfathered findings")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings to --baseline and exit 0")
    parser.add_argument(
        "--sarif-out", type=Path, default=None, metavar="FILE",
        help="additionally write a SARIF 2.1.0 report to FILE")
    parser.add_argument(
        "--timings", action="store_true",
        help="print per-rule wall time in the text report")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="include source snippets in the text report")
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
    rules: Optional[List[Rule]] = None
    selected = args.select or args.rule
    if selected:
        try:
            rules = [rule_by_id(rule_id.strip())
                     for rule_id in selected.split(",")
                     if rule_id.strip()]
        except KeyError as exc:
            print(f"simlint: {exc.args[0]}", file=sys.stderr)
            return 2
    paths = args.paths or [default_lint_root()]

    only: Optional[List[Path]] = None
    if args.changed is not None:
        ref = args.changed or None
        only = changed_files(ref, paths)
        if only is None:
            print("simlint: --changed requires a git checkout with a "
                  "resolvable ref (origin/main, main, or HEAD)",
                  file=sys.stderr)
            return 2

    if args.write_baseline:
        if args.baseline is None:
            print("--write-baseline requires --baseline FILE",
                  file=sys.stderr)
            return 2
        report = lint_paths(paths, rules=rules, only=only)
        Baseline.from_findings(report.findings).dump(args.baseline)
        print(f"wrote {len(report.findings)} finding(s) to "
              f"{args.baseline}")
        return 0

    baseline = None
    if args.baseline is not None and args.baseline.exists():
        baseline = Baseline.load(args.baseline)
    report = lint_paths(paths, rules=rules, baseline=baseline,
                        only=only)
    chosen = rules if rules is not None else list(ALL_RULES)
    if args.sarif_out is not None:
        args.sarif_out.write_text(render_sarif(report, chosen),
                                  encoding="utf-8")
    if args.output_format == "json":
        print(render_json(report))
    elif args.output_format == "sarif":
        print(render_sarif(report, chosen))
    else:
        print(render_text(report, verbose=args.verbose,
                          timings=args.timings))
    for error in report.parse_errors:
        print(f"simlint: parse error: {error}", file=sys.stderr)
    return 0 if report.clean else 1


if __name__ == "__main__":                          # pragma: no cover
    sys.exit(main())
