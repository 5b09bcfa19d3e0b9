"""Docs checker (``repro-sim lint --docs``): simlint for the prose.

Documentation rots in three specific ways this repo has already been
bitten by, and this module checks all three mechanically:

**internal links**
    Every relative markdown link in ``README.md``, ``EXPERIMENTS.md``,
    ``DESIGN.md`` and ``docs/*.md`` must point at a file that exists,
    and every ``#anchor`` fragment at a heading that exists in the
    target (GitHub's slug rules).

**CLI examples**
    Every ``repro-sim ...`` command — fenced blocks and inline code
    spans alike — is validated against the *real* parser
    (:func:`repro.cli.build_parser`), so a renamed flag or subcommand
    fails the docs build instead of a reader.  Only subcommand names
    and ``--option`` flags are validated; operands, shell plumbing
    (pipes, redirects, env prefixes) and usage placeholders
    (``[--quick|--full]``) are tolerated.

**module paths**
    Every dotted ``repro.*`` path named in the docs must import (and
    any trailing attribute resolve), so docs cannot reference modules
    or functions that were moved or deleted.

It lives in the harness layer (not :mod:`repro.analysis`) because
validating CLI examples requires importing :mod:`repro.cli`, which the
ARCH001 import-layering rule forbids from the analysis layer.
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["check_docs", "check_file", "cli_surface", "heading_anchors",
           "main"]

#: What gets checked when no paths are given (relative to repo root).
DEFAULT_ROOTS = ("README.md", "EXPERIMENTS.md", "DESIGN.md", "docs")

_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_FENCE_RE = re.compile(r"^\s*(```|~~~)")
_INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
_MODULE_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_ENV_ASSIGN_RE = re.compile(r"^[A-Z][A-Z0-9_]*=\S*$")


# ------------------------------------------------------------------ links
def github_slug(heading: str) -> str:
    """GitHub's heading-to-anchor slug: lowercase, drop punctuation,
    spaces to hyphens (backtick code spans keep their content)."""
    text = heading.strip().lower()
    text = text.replace("`", "")
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(text: str) -> Set[str]:
    """All anchor slugs a markdown document exposes (duplicate headings
    get ``-1``/``-2`` suffixes, as on GitHub)."""
    anchors: Set[str] = set()
    counts: Dict[str, int] = {}
    in_fence = False
    for line in text.splitlines():
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        anchors.add(slug if seen == 0 else f"{slug}-{seen}")
    return anchors


def _check_links(path: Path, text: str, repo_root: Path) -> List[str]:
    problems = []
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            where = f"{path}:{lineno}"
            if target.startswith("#"):
                if target[1:] not in heading_anchors(text):
                    problems.append(
                        f"{where}: broken anchor {target!r} "
                        "(no such heading in this file)")
                continue
            file_part, _, anchor = target.partition("#")
            resolved = (path.parent / file_part).resolve()
            try:
                resolved.relative_to(repo_root.resolve())
            except ValueError:
                problems.append(
                    f"{where}: link {target!r} escapes the repository")
                continue
            if not resolved.exists():
                problems.append(
                    f"{where}: broken link {target!r} "
                    f"(no such file: {file_part})")
                continue
            if anchor and resolved.suffix == ".md":
                linked = resolved.read_text(encoding="utf-8")
                if anchor not in heading_anchors(linked):
                    problems.append(
                        f"{where}: broken anchor {target!r} "
                        f"(no heading #{anchor} in {file_part})")
    return problems


# ------------------------------------------------------------ CLI surface
def cli_surface() -> Dict[str, Set[str]]:
    """subcommand -> set of valid option strings, from the real parser.

    ``lint`` owns its options in :mod:`repro.analysis.runner` (the main
    parser only stubs it), so its surface is introspected there, plus
    the ``--docs`` dispatch flag this module adds.
    """
    from ..cli import build_parser
    surface: Dict[str, Set[str]] = {}
    for action in build_parser()._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        for name, sub in action.choices.items():
            options: Set[str] = set()
            for sub_action in sub._actions:
                options.update(sub_action.option_strings)
            surface[name] = options
    from ..analysis.runner import build_parser as lint_parser
    lint_options: Set[str] = set()
    for action in lint_parser()._actions:
        lint_options.update(action.option_strings)
    lint_options.add("--docs")
    surface["lint"] = lint_options
    return surface


def _iter_commands(text: str) -> List[Tuple[int, str]]:
    """Every ``repro-sim ...`` command in *text* with its line number,
    from fenced code blocks and inline code spans."""
    commands = []
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            if "repro-sim" in line:
                commands.append((lineno, line))
        else:
            for match in _INLINE_CODE_RE.finditer(line):
                if "repro-sim" in match.group(1):
                    commands.append((lineno, match.group(1)))
    return commands


def _check_command(where: str, command: str,
                   surface: Dict[str, Set[str]]) -> List[str]:
    tokens = command.split()
    try:
        start = tokens.index("repro-sim")
    except ValueError:
        return []
    tokens = tokens[start + 1:]
    # Shell plumbing ends the command; env prefixes never precede the
    # token we anchored on, so nothing to strip on the left.
    for stop, token in enumerate(tokens):
        if token in ("|", "||", "&&", ">", ">>", "2>", ";"):
            tokens = tokens[:stop]
            break
    if not tokens:
        return []          # naming the tool, not showing a command
    subcommand = tokens[0].strip("[]")
    if not re.fullmatch(r"[a-z][a-z0-9-]*", subcommand):
        return []          # usage placeholder like <command>; skip
    if subcommand not in surface:
        known = ", ".join(sorted(surface))
        return [f"{where}: unknown subcommand `{subcommand}` "
                f"(known: {known})"]
    problems = []
    for token in tokens[1:]:
        # Usage templates bracket alternatives: [--quick|--full].
        for part in token.strip("[]").split("|"):
            if not part.startswith("--"):
                continue
            flag = part.split("=", 1)[0].rstrip("]")
            if flag == "--":
                continue
            if flag not in surface[subcommand]:
                problems.append(
                    f"{where}: `repro-sim {subcommand}` has no "
                    f"{flag} option")
    return problems


def _check_cli_examples(path: Path, text: str,
                        surface: Dict[str, Set[str]]) -> List[str]:
    problems = []
    for lineno, command in _iter_commands(text):
        problems.extend(
            _check_command(f"{path}:{lineno}", command, surface))
    return problems


# ----------------------------------------------------------- module paths
def _resolve_dotted(dotted: str) -> bool:
    """True if *dotted* names an importable module, or an attribute
    reachable from one (``repro.harness.engine.Job``)."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        obj = module
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _check_module_paths(path: Path, text: str) -> List[str]:
    problems = []
    checked: Set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _MODULE_RE.finditer(line):
            dotted = match.group(0)
            if dotted in checked:
                continue
            checked.add(dotted)
            if not _resolve_dotted(dotted):
                problems.append(
                    f"{path}:{lineno}: `{dotted}` does not resolve to "
                    "a module or attribute")
    return problems


# --------------------------------------------------------------- driver
def check_file(path: Path, repo_root: Path,
               surface: Optional[Dict[str, Set[str]]] = None) -> List[str]:
    """All findings for one markdown file."""
    text = path.read_text(encoding="utf-8")
    if surface is None:
        surface = cli_surface()
    return (_check_links(path, text, repo_root)
            + _check_cli_examples(path, text, surface)
            + _check_module_paths(path, text))


def check_docs(roots: Sequence[str] = DEFAULT_ROOTS,
               repo_root: str = ".") -> List[str]:
    """Check every markdown file under *roots*; returns findings."""
    root = Path(repo_root)
    files: List[Path] = []
    for entry in roots:
        path = root / entry
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        elif path.suffix == ".md" and path.exists():
            files.append(path)
    surface = cli_surface()
    problems: List[str] = []
    for path in sorted(set(files)):
        problems.extend(check_file(path, root, surface))
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sim lint --docs",
        description="validate docs: internal links, repro-sim command "
                    "examples, and repro.* module paths")
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="markdown files or directories "
             f"(default: {' '.join(DEFAULT_ROOTS)})")
    args = parser.parse_args(argv)
    roots = args.paths or list(DEFAULT_ROOTS)
    problems = check_docs(roots)
    for problem in problems:
        print(problem)
    count = len(problems)
    checked = ", ".join(roots)
    if count:
        print(f"docscheck: {count} problem(s) in {checked}",
              file=sys.stderr)
        return 1
    print(f"docscheck: {checked} clean")
    return 0


if __name__ == "__main__":                          # pragma: no cover
    sys.exit(main())
