"""simlint reporters: text and SARIF 2.1.0.

The SARIF document (``--sarif-out``) feeds GitHub code scanning: the
CI lint job uploads it so findings annotate PR diffs.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Sequence

if TYPE_CHECKING:                                  # pragma: no cover
    from .core import Rule
    from .runner import LintReport

__all__ = ["render_text", "render_sarif"]

_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                 "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def render_text(report: "LintReport") -> str:
    """GCC-style ``path:line:col: RULE message`` lines, each followed by
    its source line, plus a summary."""
    lines: List[str] = []
    for finding in report.findings:
        lines.append(finding.render())
        if finding.snippet:
            lines.append(f"    | {finding.snippet}")
    lines.append("")
    verdict = "FAIL" if report.findings else "OK"
    lines.append(
        f"simlint: {verdict} — {len(report.findings)} finding(s), "
        f"{report.files_checked} file(s) checked")
    return "\n".join(lines)


def render_sarif(report: "LintReport",
                 rules: Sequence["Rule"]) -> str:
    """SARIF 2.1.0 document for GitHub code scanning."""
    rule_meta = []
    rule_index: Dict[str, int] = {}
    for index, rule in enumerate(rules):
        rule_index[rule.id] = index
        rule_meta.append({
            "id": rule.id,
            "name": rule.name.title().replace(" ", "").replace("-", ""),
            "shortDescription": {"text": rule.name},
            "fullDescription": {"text": rule.rationale},
            "helpUri": ("https://github.com/repro-sim/repro/blob/main/"
                        f"docs/analysis.md#{rule.id.lower()}"),
            "defaultConfiguration": {"level": "error"},
        })
    results = []
    for finding in report.findings:
        result = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": finding.col + 1,
                    },
                },
            }],
        }
        if finding.rule in rule_index:
            result["ruleIndex"] = rule_index[finding.rule]
        results.append(result)
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "simlint",
                    "informationUri": ("https://github.com/repro-sim/"
                                       "repro/blob/main/docs/"
                                       "analysis.md"),
                    "version": "2.0.0",
                    "rules": rule_meta,
                },
            },
            "results": results,
            "columnKind": "utf16CodeUnits",
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True)
