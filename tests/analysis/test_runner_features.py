"""simlint's SARIF output, which CI uploads to code scanning."""

import json

from repro.analysis import lint_paths
from repro.analysis.report import render_sarif
from repro.analysis.rules import ALL_RULES
from repro.analysis.runner import main


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


def test_cli_sarif_out(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs):\n    return list(set(xs))\n")
    out_file = tmp_path / "lint.sarif"
    assert main(["--sarif-out", str(out_file), str(bad)]) == 1
    # the text report still goes to stdout
    assert "DET002" in capsys.readouterr().out
    written = json.loads(out_file.read_text())
    assert [r["ruleId"] for r in written["runs"][0]["results"]] \
        == ["DET002"]
