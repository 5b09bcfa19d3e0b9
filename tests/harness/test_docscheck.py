"""Tests for the docs checker behind ``repro-sim lint --docs``.

The repo-clean test here is the docs twin of
``tests/analysis/test_repo_clean.py``: the committed README and docs
tree must produce zero findings. The fixture tests pin that each class
of rot (broken link, broken anchor, stale CLI flag, moved module) is
actually caught.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.docscheck import (
    check_docs,
    check_file,
    cli_surface,
    github_slug,
    heading_anchors,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ repo clean
def test_committed_docs_are_clean():
    problems = check_docs(repo_root=str(REPO_ROOT))
    assert problems == []


def test_cli_lint_docs_dispatch(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    code = main(["lint", "--docs"])
    out = capsys.readouterr().out
    assert code == 0
    assert "clean" in out


# ----------------------------------------------------------------- slugs
def test_github_slug_rules():
    assert github_slug("The Job Model") == "the-job-model"
    assert github_slug("`repro-sim trace`: export") == "repro-sim-trace-export"
    assert github_slug("Cache key anatomy") == "cache-key-anatomy"
    assert github_slug("Figures & paper parity!") == "figures--paper-parity"


def test_heading_anchors_dedup_and_fences():
    text = ("# Title\n"
            "## Setup\n"
            "```\n"
            "# not a heading (code)\n"
            "```\n"
            "## Setup\n")
    anchors = heading_anchors(text)
    assert anchors == {"title", "setup", "setup-1"}


# -------------------------------------------------------------- fixtures
def _findings(tmp_path, text):
    doc = tmp_path / "doc.md"
    doc.write_text(text, encoding="utf-8")
    return check_file(doc, tmp_path, cli_surface())


def test_broken_file_link_caught(tmp_path):
    problems = _findings(tmp_path, "see [guide](missing.md)\n")
    assert len(problems) == 1
    assert "broken link" in problems[0]


def test_broken_anchor_caught(tmp_path):
    (tmp_path / "other.md").write_text("# Real Heading\n")
    problems = _findings(
        tmp_path,
        "[ok](other.md#real-heading) [bad](other.md#no-such)\n"
        "[self](#nope)\n")
    assert len(problems) == 2
    assert all("broken anchor" in p for p in problems)


def test_link_escaping_repo_caught(tmp_path):
    problems = _findings(tmp_path, "[up](../../etc/passwd)\n")
    assert len(problems) == 1
    assert "escapes the repository" in problems[0]


def test_valid_links_pass(tmp_path):
    (tmp_path / "other.md").write_text("# Real Heading\n")
    assert _findings(
        tmp_path,
        "[f](other.md) [a](other.md#real-heading)\n"
        "[web](https://example.com/x.md)\n") == []


def test_stale_cli_flag_caught(tmp_path):
    problems = _findings(
        tmp_path,
        "```bash\nrepro-sim figures --quick --no-such-flag\n```\n")
    assert len(problems) == 1
    assert "--no-such-flag" in problems[0]


def test_unknown_subcommand_caught(tmp_path):
    problems = _findings(tmp_path, "run `repro-sim frobnicate` now\n")
    assert len(problems) == 1
    assert "unknown subcommand" in problems[0]


def test_cli_tolerates_plumbing_and_placeholders(tmp_path):
    assert _findings(
        tmp_path,
        "```bash\n"
        "REPRO_JOBS=8 repro-sim figures --quick --out d/ > log.txt\n"
        "repro-sim figures [--quick|--full] --fig N\n"
        "repro-sim <command> --help\n"
        "```\n"
        "prose naming the tool: `repro-sim` alone is fine\n") == []


def test_bad_module_path_caught(tmp_path):
    problems = _findings(
        tmp_path,
        "see `repro.harness.figures` and `repro.gone.module`\n")
    assert len(problems) == 1
    assert "repro.gone.module" in problems[0]


def test_module_attribute_paths_resolve(tmp_path):
    assert _findings(
        tmp_path,
        "`repro.harness.engine.Job` and `repro.harness.figures.REGISTRY`\n"
    ) == []
    problems = _findings(tmp_path, "`repro.harness.engine.NoSuchName`\n")
    assert len(problems) == 1


def test_fenced_links_not_checked(tmp_path):
    assert _findings(
        tmp_path, "```\n[example](not-a-real-file.md)\n```\n") == []


# ------------------------------------------------------------ CLI surface
def test_cli_surface_covers_new_subcommands():
    surface = cli_surface()
    assert "figures" in surface
    for flag in ("--quick", "--full", "--fig", "--check-baseline",
                 "--write-baseline", "--sync-doc", "--out",
                 "--jobs", "--no-cache"):
        assert flag in surface["figures"], flag
    assert "lint" in surface
    assert "--docs" in surface["lint"]
    assert "--select" in surface["lint"]
