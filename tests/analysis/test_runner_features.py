"""simlint runner features: unused-suppression warnings, --changed,
SARIF output, per-rule timings, and the --rule alias."""

import json
import subprocess
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.report import render_json, render_sarif, render_text
from repro.analysis.rules import ALL_RULES
from repro.analysis.runner import changed_files, main


# ------------------------------------------------ unused suppressions
def test_unused_suppression_is_reported(tmp_path):
    source = tmp_path / "clean.py"
    source.write_text(
        "def f(xs):\n"
        "    return sorted(xs)  # simlint: disable=DET002 stale\n")
    report = lint_paths([source])
    assert not report.findings
    assert len(report.unused_suppressions) == 1
    unused = report.unused_suppressions[0]
    assert unused.line == 2 and unused.rules == ("DET002",)
    text = render_text(report)
    assert "unused suppression" in text
    assert "1 unused suppression(s)" in text
    payload = json.loads(render_json(report))
    assert payload["summary"]["unused_suppressions"] == 1


def test_live_suppression_is_not_reported(tmp_path):
    source = tmp_path / "hot.py"
    source.write_text(
        "def f(xs):\n"
        "    return [x for x in set(xs)]"
        "  # simlint: disable=DET002 demo\n")
    report = lint_paths([source])
    assert not report.findings and report.suppressed == 1
    assert not report.unused_suppressions


def test_partially_used_directive_reports_unused_rule_only(tmp_path):
    source = tmp_path / "partial.py"
    source.write_text(
        "def f(xs):\n"
        "    return [x for x in set(xs)]"
        "  # simlint: disable=DET002,DET001 demo\n")
    report = lint_paths([source])
    assert len(report.unused_suppressions) == 1
    assert report.unused_suppressions[0].rules == ("DET001",)


def test_unused_not_reported_for_rules_that_did_not_run(tmp_path):
    source = tmp_path / "clean.py"
    source.write_text(
        "def f(xs):\n"
        "    return sorted(xs)  # simlint: disable=DET002 stale\n")
    det001 = [r for r in ALL_RULES if r.id == "DET001"]
    report = lint_paths([source], rules=det001)
    assert not report.unused_suppressions


def test_docstring_directive_examples_are_not_live_directives():
    core = Path(__file__).resolve().parents[2] / "src" / "repro" / \
        "analysis" / "core.py"
    report = lint_paths([core])
    assert not report.unused_suppressions, [
        u.render() for u in report.unused_suppressions]


# ------------------------------------------------ timings
def test_per_rule_timings_recorded(tmp_path):
    source = tmp_path / "anything.py"
    source.write_text("x = 1\n")
    report = lint_paths([source])
    assert set(report.rule_seconds) == {r.id for r in ALL_RULES}
    assert all(seconds >= 0.0
               for seconds in report.rule_seconds.values())
    text = render_text(report, timings=True)
    assert "per-rule wall time" in text


# ------------------------------------------------ SARIF
def test_sarif_document_shape(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs):\n    return list(set(xs))\n")
    report = lint_paths([bad])
    document = json.loads(render_sarif(report, ALL_RULES))
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == [r.id for r in ALL_RULES]
    assert run["results"], "expected at least one DET002 result"
    result = run["results"][0]
    assert result["ruleId"] == "DET002"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1
    index = result["ruleIndex"]
    assert rule_ids[index] == "DET002"


def test_cli_sarif_format_and_sarif_out(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs):\n    return list(set(xs))\n")
    out_file = tmp_path / "lint.sarif"
    code = main(["--format", "sarif", "--sarif-out", str(out_file),
                 str(bad)])
    assert code == 1
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(out_file.read_text())
    assert printed == written
    assert written["runs"][0]["results"]


# ------------------------------------------------ --rule alias
def test_rule_flag_is_select_alias(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs):\n    return list(set(xs))\n")
    assert main(["--rule", "DET002", str(bad)]) == 1
    assert "DET002" in capsys.readouterr().out
    assert main(["--rule", "API001", str(bad)]) == 0
    capsys.readouterr()
    assert main(["--rule", "NOPE999", str(bad)]) == 2


# ------------------------------------------------ --changed
@pytest.fixture()
def git_repo(tmp_path):
    def git(*args):
        subprocess.run(["git", *args], cwd=tmp_path, check=True,
                       capture_output=True)
    git("init", "-q", "-b", "main")
    git("config", "user.email", "lint@test")
    git("config", "user.name", "lint")
    (tmp_path / "old.py").write_text("x = 1\n")
    git("add", "old.py")
    git("commit", "-qm", "seed")
    return tmp_path


def test_changed_files_lists_modified_and_untracked(git_repo):
    (git_repo / "old.py").write_text("x = 2\n")
    (git_repo / "new.py").write_text("y = 1\n")
    changed = changed_files("HEAD", [git_repo])
    names = [p.name for p in changed]
    assert names == ["new.py", "old.py"]


def test_changed_ref_fallback_resolves_head(git_repo):
    # no origin/main here; the default chain falls back to main
    (git_repo / "new.py").write_text("y = 1\n")
    changed = changed_files(None, [git_repo])
    assert [p.name for p in changed] == ["new.py"]


def test_changed_outside_git_returns_none(tmp_path):
    assert changed_files("HEAD", [tmp_path / "nowhere"]) is None


def test_cli_changed_limits_findings_to_changed_files(git_repo, capsys):
    # a pre-existing violation in a committed file is not reported...
    (git_repo / "old.py").write_text(
        "def f(xs):\n    return list(set(xs))\n")
    subprocess.run(["git", "add", "old.py"], cwd=git_repo, check=True,
                   capture_output=True)
    subprocess.run(["git", "commit", "-qm", "bad"], cwd=git_repo,
                   check=True, capture_output=True)
    (git_repo / "new.py").write_text("y = 1\n")
    assert main(["--changed", "HEAD", str(git_repo)]) == 0
    out = capsys.readouterr().out
    assert "1 file(s) checked" in out
    # ...but a violation in a changed file is
    (git_repo / "new.py").write_text(
        "def g(xs):\n    return tuple(set(xs))\n")
    assert main(["--changed", "HEAD", str(git_repo)]) == 1
    out = capsys.readouterr().out
    assert "new.py" in out and "old.py" not in out


def test_cli_changed_parses_only_changed_files(git_repo, capsys):
    # a committed file that no longer parses is not even read
    (git_repo / "old.py").write_text("def broken(:\n")
    subprocess.run(["git", "commit", "-qam", "broken"], cwd=git_repo,
                   check=True, capture_output=True)
    (git_repo / "new.py").write_text("y = 1\n")
    assert main(["--changed", "HEAD", str(git_repo)]) == 0
    assert "1 file(s) checked" in capsys.readouterr().out


def test_cli_changed_errors_cleanly_outside_git(tmp_path, capsys):
    source = tmp_path / "x.py"
    source.write_text("x = 1\n")
    assert main(["--changed", "HEAD", str(source)]) == 2
