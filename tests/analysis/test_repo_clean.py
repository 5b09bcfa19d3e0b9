"""Tier-1 gate: the repo's own source must be simlint-clean.

Runs every rule over the installed ``repro`` package; any finding fails
CI.  A rule's ``ALLOWED_MODULES`` is the only exemption, so every
accepted exception is listed next to the rule it escapes.
"""

import importlib.util
from pathlib import Path

import repro
from repro.analysis import ALL_RULES, lint_paths, lint_source
from repro.analysis.report import render_text
from repro.cli import main as cli_main


def _package_root() -> Path:
    return Path(repro.__file__).parent


def test_repo_is_lint_clean_with_empty_baseline():
    report = lint_paths([_package_root()])
    assert report.files_checked > 50, "lint walked suspiciously few files"
    assert not report.parse_errors, report.parse_errors
    assert not report.findings, "\n" + render_text(report)


def test_no_unused_suppressions_in_repo():
    # An allowlist entry must still exempt something: linted under a
    # name no rule exempts, each allowlisted module trips its rule.
    # Otherwise the entry only hides the module's future findings.
    for rule in ALL_RULES:
        for module in getattr(rule, "ALLOWED_MODULES", ()):
            source = Path(importlib.util.find_spec(module).origin)
            hits = lint_source(source.read_text(encoding="utf-8"),
                               rules=[rule], module="repro.unlisted")
            assert hits, (f"{rule.id} allowlists {module}, which it "
                          f"would not flag; delete the entry")


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


def test_cli_lint_select(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs):\n    return list(set(xs))\n")
    assert cli_main(["lint", "--select", "DET002", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:2:17: DET002" in out
    assert "    | return list(set(xs))" in out
    # selecting a rule the file doesn't violate exits clean
    assert cli_main(["lint", "--select", "API001", str(bad)]) == 0
    assert "simlint: OK" in capsys.readouterr().out
    assert cli_main(["lint", "--select", "NOPE999", str(bad)]) == 2


def test_cli_lint_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines()
              if line and not line[0].isspace()]
    assert listed == ["DET001", "DET002", "DET003", "CFG001", "STAT001",
                      "NUM001", "ARCH001", "API001"]
