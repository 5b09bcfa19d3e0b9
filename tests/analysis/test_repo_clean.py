"""Tier-1 gate: the repo's own source must be simlint-clean.

Runs every rule over the installed ``repro`` package with an **empty
baseline** — any new finding fails CI.  Accepted exceptions must carry an
inline ``# simlint: disable=RULE <reason>`` comment, which keeps them
visible at the violation site instead of hidden in a baseline file.
"""

from pathlib import Path

import repro
from repro.analysis import lint_paths
from repro.analysis.report import render_text
from repro.cli import main as cli_main


def _package_root() -> Path:
    return Path(repro.__file__).parent


def test_repo_is_lint_clean_with_empty_baseline():
    report = lint_paths([_package_root()])
    assert report.files_checked > 50, "lint walked suspiciously few files"
    assert not report.parse_errors, report.parse_errors
    assert not report.findings, "\n" + render_text(report, verbose=True)


def test_suppressions_remain_rare_and_visible():
    # Inline suppressions are allowed but counted; if this number creeps
    # up, findings are being silenced instead of fixed.  Raise it only
    # with a justification in the PR.
    #
    # Current budget: none.  The tree carries no suppression directive.
    report = lint_paths([_package_root()])
    assert report.suppressed <= 0, (
        f"{report.suppressed} inline suppressions in src/repro — "
        f"fix findings instead of suppressing them")


def test_no_unused_suppressions_in_repo():
    # Every directive must still be load-bearing; stale ones rot into
    # misleading documentation.  The runner reports them as warnings —
    # this test turns the warning into a tier-1 failure for our own tree.
    report = lint_paths([_package_root()])
    assert not report.unused_suppressions, "\n".join(
        u.render() for u in report.unused_suppressions)


def test_cli_lint_exits_zero_on_clean_tree(capsys):
    assert cli_main(["lint", str(_package_root())]) == 0
    out = capsys.readouterr().out
    assert "simlint: OK" in out


def test_cli_lint_exits_nonzero_on_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n"
                   "def f(xs):\n"
                   "    for x in set(xs):\n"
                   "        yield x + random.random()\n")
    assert cli_main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "DET002" in out and "FAIL" in out


def test_cli_lint_json_and_select(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs):\n    return list(set(xs))\n")
    assert cli_main(["lint", "--format", "json", "--select", "DET002",
                     str(bad)]) == 1
    out = capsys.readouterr().out
    assert '"rule": "DET002"' in out
    # selecting a rule the file doesn't violate exits clean
    assert cli_main(["lint", "--select", "API001", str(bad)]) == 0


def test_cli_lint_baseline_workflow(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs):\n    return list(set(xs))\n")
    baseline = tmp_path / "baseline.json"
    assert cli_main(["lint", "--baseline", str(baseline),
                     "--write-baseline", str(bad)]) == 0
    capsys.readouterr()
    # grandfathered: exits 0
    assert cli_main(["lint", "--baseline", str(baseline), str(bad)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out
    # a new violation still fails
    bad.write_text("def f(xs):\n"
                   "    return list(set(xs)), tuple(set(xs))\n")
    assert cli_main(["lint", "--baseline", str(baseline), str(bad)]) == 1


def test_cli_lint_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines()
              if line and not line[0].isspace()]
    assert listed == ["DET001", "DET002", "DET003", "CFG001", "STAT001",
                      "NUM001", "ARCH001", "API001"]
